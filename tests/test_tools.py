"""The repository's scripts under tools/, imported by path."""

import importlib.util
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOLS / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


DECLARED = [
    {"name": "fit_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "fit_iter_per_s", "unit": "iter/s", "better": "higher", "bound": 0.25},
]


def _pair(seed, parent, change):
    """A pair of runs; ``parent`` and ``change`` give fit_s, None for a null."""
    def run(fit_s):
        return {"metrics": {"fit_s": {"value": fit_s},
                            "fit_iter_per_s": {"value": None if fit_s is None else 300 / fit_s}}}
    return {"seed": seed, "parent": run(parent), "change": run(change)}


def test_summarize_drops_only_the_pair_with_a_null(bench_pairs):
    pairs = [_pair(2201, 1.3, 1.1), _pair(2202, 1.2, 1.25), _pair(2203, None, 1.0),
             _pair(2204, 1.4, 1.2), _pair(2205, 1.1, None)]
    out = bench_pairs.summarize(pairs, DECLARED)
    fit_s = out["fit_s"]
    assert fit_s["pairs"] == 3
    assert fit_s["wins"] == 2
    assert fit_s["dropped"] == [2203, 2205]
    assert fit_s["parent"]["runs"] == [1.3, 1.2, 1.4]
    assert fit_s["change"]["runs"] == [1.1, 1.25, 1.2]
    assert fit_s["change"]["median"] == 1.2
    rate = out["fit_iter_per_s"]
    assert (rate["pairs"], rate["wins"], rate["dropped"]) == (3, 2, [2203, 2205])


def test_summarize_without_nulls_uses_every_pair(bench_pairs):
    pairs = [_pair(1, 1.0, 0.9), _pair(2, 1.0, 1.0), _pair(3, 1.0, 1.1)]
    fit_s = bench_pairs.summarize(pairs, DECLARED)["fit_s"]
    assert (fit_s["pairs"], fit_s["wins"], fit_s["dropped"]) == (3, 1, [])


def test_summarize_leaves_out_a_metric_no_pair_reports(bench_pairs):
    pairs = [_pair(1, None, 0.9), _pair(2, 1.0, None)]
    assert bench_pairs.summarize(pairs, DECLARED) == {}


@pytest.fixture(scope="module")
def pipeline_outputs():
    spec = importlib.util.spec_from_file_location("pipeline_outputs",
                                                  TOOLS / "pipeline_outputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _outputs(root, files):
    for rel, text in files.items():
        (root / rel).parent.mkdir(parents=True, exist_ok=True)
        (root / rel).write_text(text)
    return root


SCORES = "model,dic,cvdcl@1.5,n@1.5\nm1,411.85,-7.642265180329434,50\n"


def test_compare_reports_each_column_and_passes_within_the_tolerance(pipeline_outputs,
                                                                     tmp_path, capsys):
    parent = _outputs(tmp_path / "parent", {"a/score_scores.csv": SCORES, "a/fit.txt": "x\n"})
    change = _outputs(tmp_path / "change", {
        "a/score_scores.csv": SCORES.replace("-7.642265180329434", "-7.642265180233448"),
        "a/fit.txt": "x\n"})
    assert pipeline_outputs.main(["--compare", str(parent), str(change), "--tol", "1e-9"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["a/score_scores.csv:", "  cvdcl@1.5: 9.6e-11"]
    assert pipeline_outputs.main(["--compare", str(parent), str(change)]) == 1
    assert capsys.readouterr().out.splitlines()[1] == "  cvdcl@1.5: 9.6e-11 > 0"
    assert pipeline_outputs.main(["--compare", str(parent), str(parent)]) == 0
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("changed", [
    {"a/score_scores.csv": SCORES.replace("m1", "m2")},            # a cell that is no number
    {"a/score_scores.csv": SCORES.replace("n@1.5", "n@2")},        # a header
    {"a/score_scores.csv": SCORES + "m2,1.0,2.0,3\n"},             # a row
    {"a/score_scores.csv": SCORES.replace("50", "nan")},           # a number against nan
    {"a/fit.txt": "y\n"},                                          # a file that is no CSV
    {"b/new.csv": "x\n"},                                          # a file one side lacks
])
def test_compare_fails_on_a_difference_that_is_not_numeric(pipeline_outputs, tmp_path,
                                                           changed):
    files = {"a/score_scores.csv": SCORES, "a/fit.txt": "x\n"}
    parent = _outputs(tmp_path / "parent", files)
    change = _outputs(tmp_path / "change", {**files, **changed})
    assert pipeline_outputs.main(["--compare", str(parent), str(change), "--tol", "1e9"]) == 1


def test_compare_needs_two_output_directories(pipeline_outputs, tmp_path):
    """A mistyped directory is an error, not an empty tree that matches."""
    with pytest.raises(SystemExit) as exc:
        pipeline_outputs.main(["--compare", str(tmp_path / "none"), str(tmp_path / "none")])
    assert exc.value.code == 2


@pytest.fixture(scope="module")
def trace_summary():
    spec = importlib.util.spec_from_file_location("trace_summary", TOOLS / "trace_summary.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# two predicts and a score: (id, parent, name, start, end); self times follow
SPANS = [
    (0, -1, "cli.parse", 0.000, 0.001),
    (1, -1, "cli.run", 0.001, 0.021),
    (2, 1, "cli.parse", 0.002, 0.010),
    (3, 1, "mcmc.mode", 0.010, 0.012),
    (4, 1, "mcmc.re_mh", 0.012, 0.018),
    (5, -1, "cli.run", 0.030, 0.040),
    (6, 5, "cli.parse", 0.031, 0.035),
    (7, 5, "mcmc.re_mh", 0.035, 0.036),
    (8, 7, "mcmc.mode", 0.0352, 0.0355),
    (9, -1, "cli.run", 0.050, 0.100),
    (10, 9, "mcmc.dic", 0.051, 0.081),
    (11, 10, "mcmc.fitdata", 0.052, 0.072),
    (12, 9, "dynpred.cvdcl", 0.081, 0.091),
    (13, 12, "mcmc.mode", 0.082, 0.083),
]


def _write_trace(path):
    own = {i: end - start for i, _, _, start, end in SPANS}
    for i, parent, _, start, end in SPANS:
        if parent >= 0:
            own[parent] -= end - start
    path.write_text("id,parent,name,start_s,end_s,self_s\n" + "".join(
        f"{i},{parent},{name},{start!r},{end!r},{own[i]!r}\n"
        for i, parent, name, start, end in SPANS))
    return path


def test_trace_summary_splits_each_command_by_direct_child(trace_summary, tmp_path, capsys):
    """Each cli.run is named by the spans below it and split by its direct
    children, averaged over the runs of the command; nested spans stay in
    their parent's time."""
    out = trace_summary.summarize(trace_summary.read_spans(_write_trace(tmp_path / "t.csv")))
    assert list(out) == ["predict", "score"]
    predict, score = out["predict"], out["score"]
    assert predict["runs"] == 2 and score["runs"] == 1
    assert predict["total"] == pytest.approx(15.0)
    assert predict["children"] == pytest.approx({"cli.parse": 6.0, "mcmc.re_mh": 3.5,
                                                 "mcmc.mode": 1.0})
    assert list(predict["children"]) == ["cli.parse", "mcmc.re_mh", "mcmc.mode"]
    assert predict["self"] == pytest.approx(4.5)
    assert score["children"] == pytest.approx({"mcmc.dic": 30.0, "dynpred.cvdcl": 10.0})
    assert score["self"] == pytest.approx(10.0)
    assert trace_summary.main([str(tmp_path / "t.csv")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == ["predict: 2 runs, 15.0 ms", "  cli.parse: 6.0 ms"]
    assert lines[-1] == "  (self): 10.0 ms"
