"""Deterministic benchmark corpus and its oracle.

``build(workload, seed, root)`` writes synthetic Java sources, a SARIF file,
ground-truth labels, a run config and the scripted model replies (a mock
script, or a fault plan for the localhost stub) under ``root``. The program
under test sees only those files.

Every reply is planned here, so the expected report counts, the expected
number of backend requests and the expected salvage count come from the
plan itself and never from pipeline output. The same (workload, seed) pair
always produces byte-identical files.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

ATTEMPT_CAP = 4
BACKOFF_BASE_S = 0.05  # only the stub's 429/503 replies make the client back off
VERDICT_ACCURACY = 0.85  # share of planned verdicts that agree with the label

# Sink variants a helper method offers: rule id, CWE tag, sink line.
SINKS = {
    "sql": ("java/sql-injection", "external/cwe/cwe-089",
            "connection.prepareStatement(\"SELECT * FROM t WHERE c='\" + value + \"'\").execute();",
            "prepareStatement"),
    "cmd": ("java/command-line-injection", "external/cwe/cwe-078",
            'Runtime.getRuntime().exec("ls " + value);', "exec"),
    "path": ("java/path-injection", "external/cwe/cwe-022",
             'java.io.File file = new java.io.File("/data", value);', "new java.io.File"),
    "xss": ("java/xss", "external/cwe/cwe-079", "writer.println(value);", "println"),
}
SINK_ORDER = ("sql", "cmd", "path", "xss")

# Reply kinds. Mock kinds are served by the scripted mock backend; stub
# kinds by the localhost chat-completions stub.
#   plain      strict JSON verdict                       1 request, OK
#   prose      JSON wrapped in prose (salvage path)      1 request, OK, salvaged
#   junk       prose without JSON                        1 request, UNEVALUATED (NotJson)
#   ratelimit  one 429 with Retry-After, then plain      2 requests, OK
#   unavail    two 503s, then plain                      3 requests, OK
#   malformed  HTTP 200 with a broken body               1 request, UNEVALUATED (BackendError)
REQUESTS = {"plain": 1, "prose": 1, "junk": 1, "ratelimit": 2, "unavail": 3, "malformed": 1}
UNEVALUATED_KINDS = {"junk": "NotJson", "malformed": "BackendError"}
# The mock workload carries this share of junk replies only so that
# failed_ratio is never zero; the benchmark reports no zero-valued metric.
MOCK_JUNK = ("junk", 0.02)


@dataclass(frozen=True)
class Workload:
    name: str
    files: int
    pairs_per_file: int  # caller/helper method pairs per source file
    filler: int  # filler lines around each step inside a method
    findings: int
    prompt_mode: str
    backend: str  # "mock" or "live"
    parallelism: int
    text_block: bool  # file 0 holds a text block with an odd number of quotes
    reply_mix: tuple[tuple[str, float], ...]  # share per kind; the rest is "plain"


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="shared-files", files=4, pairs_per_file=20, filler=12, findings=64,
            prompt_mode="BOTH", backend="mock", parallelism=1, text_block=True,
            reply_mix=(MOCK_JUNK,),
        ),
        Workload(
            name="live-stub", files=240, pairs_per_file=1, filler=2, findings=240,
            prompt_mode="OPTIMIZED", backend="live", parallelism=2,
            text_block=False,
            reply_mix=(("ratelimit", 0.10), ("unavail", 0.05), ("malformed", 0.03),
                       ("prose", 0.10)),
        ),
    )
}


def _filler(rng: random.Random, var: str, count: int, tag: str) -> list[str]:
    out = []
    for j in range(count):
        n = rng.randrange(1, 997)
        if j % 3 == 2:
            out.append(f"        // {tag}: bookkeeping step {j} keeps audit counter {n}")
        else:
            out.append(f"        int {tag}Tmp{j} = {var}.length() * {n} + {j};")
    return out


@dataclass
class _Method:
    lines: list[str]
    marks: dict[str, int]  # label -> 0-based line offset inside ``lines``


def _caller(rng: random.Random, k: int, filler: int) -> _Method:
    lines = [
        f"    public void handle{k}(javax.servlet.http.HttpServletRequest request)"
        " throws Exception {",
    ]
    marks = {"source": len(lines)}
    lines.append(f'        String param = request.getParameter("p{k}");')
    lines += _filler(rng, "param", filler, f"c{k}")
    marks["call"] = len(lines)
    lines.append(f"        String bar = transform{k}(param);")
    lines += _filler(rng, "bar", filler // 2, f"d{k}")
    lines += ['        writer.println("done " + bar.length());', "    }", ""]
    return _Method(lines, marks)


def _helper(rng: random.Random, k: int, filler: int) -> _Method:
    lines = [f"    private String transform{k}(String input) throws Exception {{"]
    marks = {"entry": len(lines)}
    lines.append("        String value = input.trim();")
    for sink in SINK_ORDER:
        lines += _filler(rng, "value", filler // 2, f"{sink}{k}")
        marks[sink] = len(lines)
        lines.append("        " + SINKS[sink][2])
    lines += ["        return value;", "    }", ""]
    return _Method(lines, marks)


def _java_file(rng: random.Random, cls: str, wl: Workload, text_block: bool):
    """Source text plus, per method pair, the absolute 1-based line of
    every marked step."""
    lines = [
        "package bench;",
        "",
        f"public class {cls} {{",
        "    private java.sql.Connection connection;",
        "    private java.io.PrintWriter writer;",
        "",
    ]
    if text_block:
        # A text block holding one double quote: valid Java since JEP 378.
        lines += [
            '    private static final String BANNER = """',
            f'        Report for "{cls}',
            '        """;',
            "",
        ]
    pairs = []
    for k in range(wl.pairs_per_file):
        caller, helper = _caller(rng, k, wl.filler), _helper(rng, k, wl.filler)
        marks = {}
        for method in (caller, helper):
            base = len(lines) + 1
            marks.update({label: base + off for label, off in method.marks.items()})
            lines += method.lines
        pairs.append(marks)
    lines += ["}", ""]
    return lines, pairs


def _region(lines: list[str], lineno: int, needle: str) -> dict:
    col = lines[lineno - 1].find(needle)
    if col < 0:
        raise AssertionError(f"needle {needle!r} not on line {lineno}")
    return {"startLine": lineno, "endLine": lineno,
            "startColumn": col + 1, "endColumn": col + 1 + len(needle)}


def _location(uri: str, region: dict) -> dict:
    """SARIF region as the pipeline canonicalizes it (finding identity)."""
    return {"uri": uri, "start_line": region["startLine"], "end_line": region["endLine"],
            "start_column": region["startColumn"], "end_column": region["endColumn"]}


def finding_id(rule_id: str, primary: dict, trace: list[dict], origin_index: int) -> str:
    """The documented finding identity: SHA-256 over the canonical JSON of
    rule id, primary location, trace locations and origin index."""
    payload = json.dumps(
        {"rule_id": rule_id, "primary_location": primary, "trace": trace,
         "origin_index": origin_index},
        sort_keys=True, separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _kinds(rng: random.Random, wl: Workload, n: int) -> list[str]:
    """Exact counts per reply kind, shuffled, so every seed carries the
    same mix."""
    kinds: list[str] = []
    for kind, share in wl.reply_mix:
        kinds += [kind] * round(share * n)
    kinds += ["plain"] * (n - len(kinds))
    rng.shuffle(kinds)
    return kinds


def reply_text(kind: str, verdict: str, key: str) -> str:
    body = json.dumps({"verdict": verdict, "confidence": "HIGH",
                       "reasoning": f"planned verdict for alert {key}"})
    if kind == "prose":
        return f"Here is my assessment of alert {key}.\n{body}\nLet me know if you need more."
    if kind == "junk":
        return f"I cannot decide alert {key} without seeing the deployment configuration."
    return body


def _score(verdict: str, label: str) -> str:
    says_fp = verdict == "FALSE_POSITIVE"
    is_fp = label == "FALSE_POSITIVE"
    if says_fp:
        return "tp" if is_fp else "fp"
    return "fn" if is_fp else "tn"


def build(workload: str, seed: int, root: Path) -> dict:
    """Write the corpus for ``workload`` and ``seed`` under ``root`` and
    return the oracle: expected report counts per mode, expected backend
    requests, salvage and UNEVALUATED counts."""
    wl = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    root.mkdir(parents=True, exist_ok=True)
    modes = ["BASELINE", "OPTIMIZED"] if wl.prompt_mode == "BOTH" else [wl.prompt_mode]

    files = []
    for f in range(wl.files):
        cls = f"Unit{f:04d}"
        uri = f"bench/{cls}.java"
        lines, pairs = _java_file(rng, cls, wl, wl.text_block and f == 0)
        path = root / "src" / uri
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("\n".join(lines), encoding="utf-8")
        files.append((uri, lines, pairs))

    # Each finding is one (file, pair, sink) triple. Findings go round-robin
    # over files, so every file is shared by findings/files alerts, and each
    # file's findings cycle through the sinks. Every seed thus does the same
    # work; the seed only draws which method pair carries each finding.
    pools = {(f, sink): rng.sample(range(wl.pairs_per_file), wl.pairs_per_file)
             for f in range(wl.files) for sink in SINK_ORDER}
    picks = []
    for i in range(wl.findings):
        f = i % wl.files
        sink = SINK_ORDER[(i + i // wl.files) % len(SINK_ORDER)]
        picks.append((f, pools[f, sink].pop(), sink))
    picks.sort()

    rules = {}
    results = []
    plan = []
    for origin, (f, p, sink) in enumerate(picks):
        uri, lines, pairs = files[f]
        marks = pairs[p]
        rule_id, tag, _, sink_needle = SINKS[sink]
        rules[rule_id] = tag
        key = f"A{origin:05d}"
        # Four steps whose trace crosses one method boundary: source, call,
        # helper entry, sink.
        step_specs = [("source", f'request.getParameter("p{p}")', "getParameter(...) : String"),
                      ("call", f"transform{p}(param)", f"transform{p}(...) : String"),
                      ("entry", "input.trim()", "trim(...) : String"),
                      (sink, sink_needle, "value")]
        regions = [_region(lines, marks[label], needle) for label, needle, _ in step_specs]
        primary = regions[-1]
        results.append({
            "ruleId": rule_id,
            "message": {"text": f"Untrusted input reaches a {sink} sink [{key}]."},
            "locations": [{"physicalLocation": {"artifactLocation": {"uri": uri},
                                                "region": primary}}],
            "codeFlows": [{"threadFlows": [{"locations": [
                {"location": {"physicalLocation": {"artifactLocation": {"uri": uri},
                                                   "region": region},
                              "message": {"text": msg}}}
                for region, (_, _, msg) in zip(regions, step_specs)
            ]}]}],
        })
        fid = finding_id(rule_id, _location(uri, primary),
                         [_location(uri, r) for r in regions], origin)
        plan.append((fid, key))

    sarif = {"version": "2.1.0", "runs": [{
        "tool": {"driver": {"name": "CodeQL", "rules": [
            {"id": rule, "properties": {"tags": ["security", tag]}}
            for rule, tag in sorted(rules.items())]}},
        "results": results,
    }]}
    (root / "alerts.sarif").write_text(json.dumps(sarif, indent=1) + "\n", encoding="utf-8")

    labels = {fid: rng.choice(("FALSE_POSITIVE", "TRUE_VULNERABILITY")) for fid, _ in plan}
    with (root / "labels.jsonl").open("w", encoding="utf-8", newline="\n") as fh:
        for fid, _ in plan:
            fh.write(json.dumps({"finding_id": fid, "label": labels[fid]}) + "\n")

    expected = {mode: {"tp": 0, "fp": 0, "tn": 0, "fn": 0, "unevaluated_count": 0,
                       "unmatched_count": 0, "total_findings": wl.findings} for mode in modes}
    oracle = {"requests": 0, "salvaged": 0, "unevaluated": 0, "unevaluated_by_class": {}}
    script: dict[str, object] = {}
    stub_plan: dict[str, dict] = {}
    for mode in modes:
        kinds = _kinds(rng, wl, wl.findings)
        for (fid, key), kind in zip(plan, kinds):
            label = labels[fid]
            correct = rng.random() < VERDICT_ACCURACY
            truth_verdict = "FALSE_POSITIVE" if label == "FALSE_POSITIVE" else "TRUE_POSITIVE"
            flipped = "TRUE_POSITIVE" if truth_verdict == "FALSE_POSITIVE" else "FALSE_POSITIVE"
            verdict = truth_verdict if correct else flipped
            text = reply_text(kind, verdict, key)
            oracle["requests"] += REQUESTS[kind]
            if kind in UNEVALUATED_KINDS:
                cls = UNEVALUATED_KINDS[kind]
                expected[mode]["unevaluated_count"] += 1
                oracle["unevaluated"] += 1
                oracle["unevaluated_by_class"][cls] = oracle["unevaluated_by_class"].get(cls, 0) + 1
            else:
                expected[mode][_score(verdict, label)] += 1
                oracle["salvaged"] += kind == "prose"
            if wl.backend == "live":
                stub_plan[key] = {"kind": kind, "reply": text}
            else:
                script[f"{fid}.{mode}"] = text
    oracle["expected"] = expected

    config = {
        "sarif_path": "alerts.sarif",
        "source_root": "src",
        "output_dir": "out",
        "labels_path": "labels.jsonl",
        "prompt_mode": wl.prompt_mode,
        "baseline_style": "WINDOW5",
        "parallelism": wl.parallelism,
        "backend": {"kind": wl.backend, "model": "bench-model", "attempt_cap": ATTEMPT_CAP,
                    "backoff_base_s": BACKOFF_BASE_S},
    }
    if wl.backend == "live":
        (root / "stub_plan.json").write_text(json.dumps(stub_plan, sort_keys=True) + "\n",
                                             encoding="utf-8")
    else:
        (root / "mock_script.json").write_text(
            json.dumps({"responses": script}, sort_keys=True) + "\n", encoding="utf-8")
        config["backend"]["script_path"] = "mock_script.json"
    (root / "oracle.json").write_text(json.dumps(oracle, indent=1, sort_keys=True) + "\n",
                                      encoding="utf-8")
    return {"config": config, "oracle": oracle, "modes": modes}


def write_config(root: Path, config: dict, endpoint: str | None = None) -> Path:
    """Write ``config.json``; a live backend gets the stub's endpoint."""
    config = json.loads(json.dumps(config))
    if endpoint is not None:
        config["backend"]["endpoint"] = endpoint
    path = root / "config.json"
    path.write_text(json.dumps(config, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return path
