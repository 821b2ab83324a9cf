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
