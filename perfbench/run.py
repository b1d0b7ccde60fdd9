"""slanglex benchmark: one run of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The benchmark lives in ``perfbench/`` of a source checkout and imports
slanglex from the checkout's ``src/``; nothing needs building. The run
generates its inputs from the seed (``gen.py``), then repeats the
workload for about ``--seconds``: each repetition is one closed-loop
client, a fresh worker process (``worker.py``) running the slanglex
commands one at a time, and gives one set-up sample (spawn until
``import slanglex.cli`` returned). Every repetition's reports are checked
against the report schema, against the counts the generator planted, and
byte for byte against the first repetition's.

The last stdout line is the JSON result. With ``--trace 0`` it carries the
end-to-end metrics; with ``--trace 1`` repetitions alternate between
traced and untraced and it carries the per-layer metrics. A fuller record
with the environment (and, when traced, the spans of the first traced
repetition) goes to ``.perfbench/results/`` in the checkout.
See README.md in this directory for the workloads and metrics.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import gen  # noqa: E402

PROGRAM_SEED = "7"       # the program's own seed; the inputs vary with --seed
MIN_REPS = 2             # the byte-identity check needs two repetitions
REP_TIMEOUT_S = 150

PIPELINE_STAGES = ("ingest", "phonology", "morphology", "classes", "crossclass",
                   "patterns", "embed", "subjects", "bias.gender",
                   "bias.sexprej", "bias.religion")
STAGES = PIPELINE_STAGES + ("classes.predict",)

# Quality guards: name -> (stage, summary field); mdl_bits_per_type is
# computed from the morphology summary. A workload guards only those in
# its "guards"; the others read 1.0 there (see README.md).
GUARDS = {
    "subject_f1": ("subjects", "weighted_f1"),
    "class_char_f1": ("classes", "char_f1"),
    "crossclass_f1": ("crossclass", "mean_f1"),
    "sgns_final_loss": ("embed", "last_epoch_loss"),
    "mdl_bits_per_type": ("morphology", None),
}

WORKLOADS = {
    "pipeline-usage": {
        "sizes": {"kind": "pipeline", "synthetic_entries": 30, "examples_each": 3,
                  "example_share": 1.0, "multiword_share": 0.05,
                  "low_vote_share": 0.05, "standard_words": 293, "gold_records": 127},
        "guards": ("class_char_f1", "crossclass_f1", "sgns_final_loss",
                   "mdl_bits_per_type"),
    },
    "pipeline-lexicon": {
        "sizes": {"kind": "pipeline", "synthetic_entries": 450, "examples_each": 1,
                  "example_share": 0.03, "multiword_share": 0.05,
                  "low_vote_share": 0.05, "standard_words": 900, "gold_records": 500},
        "guards": ("class_char_f1", "crossclass_f1", "sgns_final_loss",
                   "mdl_bits_per_type"),
        # two skip-gram epochs instead of eight keep embed a small share
        # of a short repetition
        "options": ("--epochs", "2"),
    },
    "vectors-query": {
        "sizes": {"kind": "vectors", "synthetic_entries": 1000, "standard_words": 3000,
                  "gold_records": 800, "vector_tokens": 5000, "dimension": 100,
                  "noise": 2.4, "query_words": 4000},
        "guards": ("subject_f1",),
    },
}

# Fixture-scale sizes for the smoke test: same shapes, a second or so each.
SMALL = {
    "pipeline-usage": {"synthetic_entries": 20},
    "pipeline-lexicon": {"synthetic_entries": 100, "standard_words": 400,
                         "gold_records": 160},
    "vectors-query": {"synthetic_entries": 100, "gold_records": 160,
                      "vector_tokens": 500, "query_words": 200},
}

_CSV = {
    "phoneme_odds.csv": "rank,phoneme,manner,odds_ratio,p_slang,p_standard",
    "manner_positions.csv": "corpus,position,manner,share",
    "affix_shares.csv": "corpus,side,rank,affix,share,cumulative",
    "class_model_comparison.csv": "model,weighted_f1",
    "class_predictions.csv": "word,true,char_prediction,morph_prediction",
    "crossclass_f1.csv": "held_class,weighted_f1",
    "clipping_types.csv": "word,source,type",
    "reduplicative_types.csv": "word,type",
    "substitutions.csv": "original,replacement,share",
    "blend_suffixes.csv": "rank,suffix,share,cumulative",
    "subject_confusion.csv": "true,predicted,count",
    "subject_metrics.csv": "label,precision,recall,f1,support",
    "occupation_projections.csv": "rank,occupation,cosine_to_female",
    "name_sexprej.csv": "name,gender,sexprej",
    "religious_bias_raw.csv": "religion,",
    "religious_bias_standardized.csv": "religion,",
    "predictions.csv": "word,prediction,score,p_Alphabetism,p_Blend,p_Clipping,"
                       "p_Reduplicative",
}
# every file a stage writes under --out, as SCHEMA.md lists them
OUTPUTS = {
    "ingest": ["filtered.jsonl"],
    "phonology": ["phoneme_odds.csv", "manner_positions.csv"],
    "morphology": ["segmenter_slang.tsv", "segmenter_standard.tsv",
                   "segmentations_slang.tsv", "segmentations_standard.tsv",
                   "affix_shares.csv"],
    "classes": ["class_model_comparison.csv", "class_predictions.csv"],
    "crossclass": ["crossclass_f1.csv"],
    "patterns": ["clipping_types.csv", "reduplicative_types.csv",
                 "substitutions.csv", "blend_suffixes.csv"],
    "embed": ["vectors.txt"],
    "subjects": ["subject_confusion.csv", "subject_metrics.csv"],
    "bias.gender": ["occupation_projections.csv"],
    "bias.sexprej": ["name_sexprej.csv"],
    "bias.religion": ["religious_bias_raw.csv", "religious_bias_standardized.csv"],
    "classes.predict": ["predictions.csv"],
}


def commands(workload: str, inputs: Path, fixtures: Path, out: Path) -> list[list[str]]:
    if WORKLOADS[workload]["sizes"]["kind"] == "pipeline":
        return [["pipeline", "--slang", str(inputs / "slang.jsonl"),
                 "--standard", str(inputs / "standard.tsv"),
                 "--gold", str(inputs / "gold.csv"),
                 "--lexicons", str(fixtures / "lexicons"),
                 "--names", str(fixtures / "names_gender.csv"),
                 "--out", str(out), "--seed", PROGRAM_SEED,
                 *WORKLOADS[workload].get("options", ())]]
    vectors, lexicons = str(inputs / "vectors.txt"), str(fixtures / "lexicons")
    return [
        ["subjects", "--slang", str(inputs / "slang.jsonl"), "--vectors", vectors,
         "--out", str(out), "--seed", PROGRAM_SEED],
        ["bias", "gender", "--vectors", vectors, "--lexicons", lexicons, "--out", str(out)],
        ["bias", "sexprej", "--vectors", vectors, "--lexicons", lexicons,
         "--names", str(fixtures / "names_gender.csv"), "--out", str(out),
         "--seed", PROGRAM_SEED],
        ["bias", "religion", "--vectors", vectors, "--lexicons", lexicons, "--out", str(out)],
        ["classes", "predict", "--model", str(inputs / "model.npz"),
         "--in", str(inputs / "words.txt"), "--delta", "0.5",
         "--out", str(out / "predictions.csv")],
    ]


def child_env(root: Path) -> dict:
    """Children import slanglex from the checkout, with BLAS threads
    capped at the core count."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def run_child(argv: list[str], env: dict) -> tuple[int, float, str]:
    start = time.perf_counter()
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, text=True)
    try:
        output, _ = proc.communicate(timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        output, _ = proc.communicate()
        return -1, time.perf_counter() - start, output + "\ntimed out"
    return proc.returncode, time.perf_counter() - start, output


def parse_summaries(lines) -> dict:
    """stage -> (seconds since the previous summary line, fields)."""
    stages, previous = {}, 0.0
    for t, line in lines:
        parts = line.split()
        if len(parts) < 2 or parts[0] != "summary" or parts[1] == "pipeline":
            continue
        fields = dict(p.split("=", 1) for p in parts[2:] if "=" in p)
        stages[parts[1].removeprefix("pipeline.")] = (t - previous, fields)
        previous = t
    return stages


def check_report(path: Path) -> str | None:
    """None when the file exists and has its SCHEMA.md header, else why not."""
    if not path.is_file():
        return f"{path.name} missing"
    expected = _CSV.get(path.name)
    lines = path.read_text(encoding="utf-8").splitlines()
    body = [line for line in lines if not line.startswith("#")]
    if path.name.startswith("segmentations_"):
        bad = [line for line in body
               if len(line.split("\t")) != 2
               or line.split("\t")[1].replace("+", "") != line.split("\t")[0]]
        return f"{path.name}: malformed line {bad[0]!r}" if bad else None
    if expected is None:
        return None if body else f"{path.name} empty"
    header = body[0] if body else ""
    ok = header.startswith(expected) if expected.endswith(",") else header == expected
    return None if ok else f"{path.name}: header {header!r}, expected {expected!r}"


def digest_tree(directory: Path) -> dict:
    return {str(p.relative_to(directory)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(directory.rglob("*")) if p.is_file()}


def stage_of(filename: str) -> str | None:
    return next((s for s, files in OUTPUTS.items() if filename in files), None)


def check_rep(rep: dict, stages_run, expect: dict, out: Path, first_digests) -> dict:
    """Per operation (stage), the list of problems found in this rep."""
    problems = {stage: [] for stage in stages_run}
    summaries = rep["summaries"]
    errors = [f["error"].strip().splitlines()[-1] for f in rep["failures"]]
    for stage in stages_run:
        if stage not in summaries:
            problems[stage].append("no summary line; " + " | ".join(errors))
            continue
        for name in OUTPUTS[stage]:
            why = check_report(out / name)
            if why:
                problems[stage].append(why)
        fields = summaries[stage][1]
        for key, value in expect.get(stage, {}).items():
            if fields.get(key) != str(value):
                problems[stage].append(f"{key}={fields.get(key)}, planted {value}")
    if first_digests is not None:
        digests = digest_tree(out)
        for name in sorted(set(digests) | set(first_digests)):
            if digests.get(name) != first_digests.get(name):
                stage = stage_of(name)
                problems.setdefault(stage or "unmapped", []).append(
                    f"{name} differs from the first repetition")
    return problems


def guard_values(workload: str, summaries: dict) -> dict:
    values = {}
    for name, (stage, field) in GUARDS.items():
        if name not in WORKLOADS[workload]["guards"]:
            values[name] = 1.0
            continue
        fields = summaries.get(stage, (0, {}))[1]
        try:
            if name == "mdl_bits_per_type":
                values[name] = ((float(fields["slang_bits"]) + float(fields["standard_bits"]))
                                / (int(fields["slang_types"]) + int(fields["standard_types"])))
            else:
                values[name] = float(fields[field])
        except (KeyError, ValueError, ZeroDivisionError):
            values[name] = None
    return values


def layer_metrics(rep: dict) -> dict:
    """Per-layer metrics of one traced repetition. Times are inclusive
    span sums; ``<layer>.self_s`` is the layer's time minus its callees'."""
    trace = rep["trace"]
    names, counts = trace["names"], trace["counts"]

    def total(*spans):
        return sum(names.get(s, {}).get("total_s", 0.0) for s in spans)

    def calls(*spans):
        return sum(names.get(s, {}).get("calls", 0) for s in spans)

    def count(key):
        return counts.get(key, 0)

    def rate(a, b):
        return a / b if b > 0 else 0.0

    loads = ("corpus.load_slang_lexicon", "corpus.load_standard_lexicon",
             "corpus.load_gold_classes")
    m = {f"cli.stage.{s}_s": rep["summaries"].get(s, (0.0,))[0] for s in STAGES}
    m["cli.cpu_s"] = rep["cpu_s"]
    m["cli.cpu_per_wall"] = rate(rep["cpu_s"], rep["wall_s"])
    m["corpus.load_s"] = total(*loads)
    m["corpus.load_calls"] = calls(*loads)
    m["corpus.entries_per_s"] = rate(sum(count(f"{s}.items") for s in loads),
                                     m["corpus.load_s"])
    m["phonology.g2p_s"] = total("phonology.to_phonemes")
    m["phonology.g2p_words_per_s"] = rate(calls("phonology.to_phonemes"), m["phonology.g2p_s"])
    m["phonology.fallback_ratio"] = rate(count("phonology.to_phonemes.fallback"),
                                         calls("phonology.to_phonemes"))
    m["morphology.train_s"] = total("morphology.train_segmenter")
    m["morphology.train_passes"] = count("morphology.train_segmenter.passes")
    m["morphology.train_words_per_s"] = rate(count("morphology.train_segmenter.words"),
                                             m["morphology.train_s"])
    m["morphology.segment_s"] = total("morphology.segment")
    m["morphology.segment_calls"] = calls("morphology.segment")
    m["morphology.segment_words_per_s"] = rate(m["morphology.segment_calls"],
                                               m["morphology.segment_s"])
    m["slangclass.features_s"] = total("slangclass.extract_char_ngrams",
                                       "slangclass.extract_morpheme_ngrams",
                                       "slangclass.fit_vocabulary")
    m["slangclass.logreg_fits"] = calls("slangclass.train_logreg")
    m["slangclass.logreg_train_s"] = total("slangclass.train_logreg")
    m["slangclass.loss_evals"] = calls("slangclass.loss_and_gradient")
    m["slangclass.loss_evals_per_fit"] = rate(m["slangclass.loss_evals"],
                                              m["slangclass.logreg_fits"])
    m["slangclass.crossclass_s"] = total("slangclass.cross_class_validate")
    m["slangclass.patterns_s"] = total(
        "slangclass.classify_clipping", "slangclass.classify_reduplicative",
        "slangclass.substitution_stats", "slangclass.blend_suffix_stats")
    m["slangclass.predict_s"] = total("slangclass.predict_proba")
    m["slangclass.predict_words_per_s"] = rate(calls("slangclass.predict_proba"),
                                               m["slangclass.predict_s"])
    m["embeddings.corpus_s"] = total("embeddings.build_usage_corpus")
    m["embeddings.train_s"] = total("embeddings.train_skipgram")
    m["embeddings.tokens_per_s"] = rate(count("embeddings.train_skipgram.token_epochs"),
                                        m["embeddings.train_s"])
    m["embeddings.save_s"] = total("embeddings.save_embeddings")
    m["embeddings.load_s"] = total("embeddings.load_embeddings")
    m["embeddings.load_calls"] = calls("embeddings.load_embeddings")
    m["embeddings.load_rows_per_s"] = rate(count("embeddings.load_embeddings.items"),
                                           m["embeddings.load_s"])
    m["social.knn_s"] = total("social.knn_from_embedding", "social.evaluate_subject_model")
    m["social.knn_queries_per_s"] = rate(count("social.evaluate_subject_model.queries"),
                                         total("social.evaluate_subject_model"))
    m["social.knn_refs"] = rate(count("social.evaluate_subject_model.refs"),
                                calls("social.evaluate_subject_model"))
    m["social.gender_s"] = total("social.gender_direction", "social.direct_bias",
                                 "social.occupation_projections")
    m["social.sexprej_s"] = total("social.name_prejudice_comparison", "social.sexprej")
    m["social.religion_s"] = total("social.religious_prejudice_matrix")
    m["reports.write_s"] = total("reports.write_csv")
    m["reports.provenance_s"] = total("reports.provenance_lines")
    m["reports.files"] = calls("reports.write_csv")
    m["reports.bytes"] = count("reports.write_csv.bytes")
    for layer in ("corpus", "phonology", "morphology", "slangclass", "embeddings",
                  "social", "reports"):
        m[f"{layer}.self_s"] = trace["layer_self_s"].get(layer, 0.0)
    return m


def environment(root: Path) -> dict:
    return {
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(), "python": platform.python_version(),
        "loadavg_at_start": os.getloadavg(),
        "blas_thread_vars": {v: os.environ.get(v) for v in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "blas_thread_vars_children": {v: child_env(root)[v] for v in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def repeat(args, root: Path, work: Path, plan: dict, stages_run, env: dict):
    """Repetitions until the next one would overrun ``--seconds`` (at
    least MIN_REPS). Each gives one set-up sample: the seconds from
    spawning its fresh worker until ``import slanglex.cli`` returned in
    it. With tracing, even repetitions are traced. Returns (repetitions,
    set-up samples)."""
    inputs, fixtures = work / "inputs", gen.fixture_dir(root)
    reps, first_digests, durations, setup = [], None, [], []
    deadline = time.perf_counter() + args.seconds
    while len(reps) < MIN_REPS or time.perf_counter() + statistics.median(durations) <= deadline:
        started = time.perf_counter()
        i = len(reps)
        traced = bool(args.trace) and i % 2 == 0
        out = work / f"rep{i}"
        rep_spec = {"root": str(root), "trace": traced, "environment": i == 0,
                    "commands": commands(args.workload, inputs, fixtures, out),
                    "result": str(work / f"rep{i}.json"),
                    "spans": str(work / f"rep{i}.spans.jsonl")}
        spec_path = work / f"rep{i}.spec.json"
        spec_path.write_text(json.dumps(rep_spec), encoding="utf-8")
        spawned = time.perf_counter()
        code, _, output = run_child([sys.executable, str(HERE / "worker.py"), str(spec_path)], env)
        durations.append(time.perf_counter() - started)
        if code != 0:
            raise RuntimeError(f"worker exited with {code}:\n{output}")
        rep = json.loads(Path(rep_spec["result"]).read_text(encoding="utf-8"))
        setup.append(rep["imported_at"] - spawned)
        rep["traced"] = traced
        rep["summaries"] = parse_summaries(rep["lines"])
        rep["problems"] = check_rep(rep, stages_run, plan["expect"], out, first_digests)
        if first_digests is None:
            first_digests = digest_tree(out)
        else:
            shutil.rmtree(out)
        reps.append(rep)
    return reps, setup


def distribution(values) -> dict:
    """Sample count, fastest, median and slowest."""
    values = sorted(values)
    return {"n": len(values), "min": values[0], "median": statistics.median(values),
            "max": values[-1]}


def end_to_end_metrics(reps, setup, plan: dict, kind: str, success: float) -> dict:
    """Medians over the run's repetitions and set-up samples (see
    README.md, "Why many short repetitions")."""
    def items(rep):
        if kind == "pipeline":
            return plan["entries"]
        fields = {s: f for s, (_, f) in rep["summaries"].items()}
        return int(fields.get("subjects", {}).get("test", 0)) + \
            int(fields.get("classes.predict", {}).get("words", 0))

    return {
        "wall_s": statistics.median(r["wall_s"] for r in reps),
        "items_per_s": statistics.median(items(r) / r["wall_s"] for r in reps),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(r["maxrss_kb"] / 1024 for r in reps),
        "success_rate": success,
    }


def traced_metrics(traced, plain) -> tuple[dict, list[str]]:
    """Median per-layer metrics of the traced repetitions, the tracing
    overhead, and the problems found when adding up stage times."""
    layers = [layer_metrics(r) for r in traced]
    metrics = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
    metrics["trace.wall_s"] = statistics.median(r["wall_s"] for r in traced)
    metrics["trace.untraced_wall_s"] = statistics.median(r["wall_s"] for r in plain)
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - metrics["trace.untraced_wall_s"]
    metrics["trace.spans"] = statistics.median(r["trace"]["spans"] for r in traced)
    # the stage times of a traced repetition must add up to its wall time,
    # short of it by no more than the tracing overhead
    slack = max(abs(metrics["trace.overhead_s"]), 0.05 * metrics["trace.wall_s"])
    problems = []
    for r in traced:
        stage_sum = sum(t for t, _ in r["summaries"].values())
        if not 0.0 <= r["wall_s"] - stage_sum <= slack:
            problems.append(f"stages add up to {stage_sum:.3f} s, "
                            f"traced wall {r['wall_s']:.3f} s")
    return metrics, problems


def run(args) -> dict:
    root = HERE.parent
    if not (root / "src" / "slanglex" / "cli.py").is_file():
        raise SystemExit(f"{root} holds no slanglex source (src/slanglex); "
                         "the benchmark runs inside a checkout")
    benchmark = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in benchmark["end_to_end"] + benchmark["per_layer"]}
    spec = WORKLOADS[args.workload]
    sizes = dict(spec["sizes"], **(SMALL[args.workload] if args.small else {}))
    env_record = environment(root)
    base = root / ".perfbench"
    work = base / f"work-{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    plan = gen.generate(root, work / "inputs", args.seed, sizes)
    env = child_env(root)
    if sizes["kind"] == "vectors":  # the classifier is trained before timing
        code, _, output = run_child(
            [sys.executable, "-m", "slanglex.cli", "classes", "train",
             "--gold", str(work / "inputs" / "gold.csv"),
             "--out", str(work / "inputs" / "model.npz")], env)
        if code != 0:
            raise RuntimeError(f"classifier training failed:\n{output}")
    code, _, output = run_child([sys.executable, "-c", "import slanglex.cli"], env)
    if code != 0:  # this first import may compile bytecode; it is not counted
        raise RuntimeError(f"import slanglex.cli failed:\n{output}")

    stages_run = PIPELINE_STAGES if sizes["kind"] == "pipeline" else (
        "subjects", "bias.gender", "bias.sexprej", "bias.religion", "classes.predict")
    reps, setup = repeat(args, root, work, plan, stages_run, env)

    attempted = sum(len(r["problems"]) for r in reps)
    failed = sum(1 for r in reps for p in r["problems"].values() if p)
    plain = [r for r in reps if not r["traced"]]
    guards = [guard_values(args.workload, r["summaries"]) for r in reps]
    correct = failed == 0 and all(g == guards[0] for g in guards) and \
        None not in guards[0].values()
    if args.trace:
        metrics, problems = traced_metrics([r for r in reps if r["traced"]], plain)
        correct = correct and not problems
        env_record["stage_sum_problems"] = problems
    else:
        metrics = end_to_end_metrics(plain, setup, plan, sizes["kind"],
                                     (attempted - failed) / attempted)
        metrics.update({k: (v if v is not None else 0.0) for k, v in guards[0].items()})

    env_record.update(reps[0].get("environment", {}))
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "small": args.small, "environment": env_record,
        "inputs": plan, "setup_s_samples": setup,
        "repetitions": [{
            "traced": r["traced"], "wall_s": r["wall_s"], "cpu_s": r["cpu_s"],
            "maxrss_kb": r["maxrss_kb"],
            "stages_s": {s: v[0] for s, v in r["summaries"].items()},
            "problems": {s: p for s, p in r["problems"].items() if p},
            "failures": r["failures"]} for r in reps],
        "wall_s_untraced": distribution(r["wall_s"] for r in plain),
        "setup_s_distribution": distribution(setup),
        "guards": guards[0], "unguarded": [g for g in GUARDS if g not in spec["guards"]],
        "error_rate": failed / attempted,
        "metrics": metrics,
    }
    results = base / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = results / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    if args.trace:  # the spans of the first traced repetition
        shutil.copy(work / "rep0.spans.jsonl", stem.with_suffix(".spans.jsonl"))
    shutil.rmtree(work, ignore_errors=True)
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="fixture-scale inputs, for the smoke test")
    args = parser.parse_args(argv)
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
