"""Plug-in estimators: exact algebraic cases and model consistency."""

import csv
import math
import warnings

import numpy as np
import pytest

from qtcorr.bivariate import (
    AMH,
    BivariateModel,
    FGM,
    GaussianCopula,
    GumbelBarnett,
    Independence,
)
from qtcorr.correlation import beta_h, named_transform
from qtcorr.distributions import (
    Affine,
    Empirical,
    Exponential,
    Logistic,
    Normal,
    Pareto,
    Power,
    Uniform,
)
from qtcorr.errors import DegenerateError, DomainError, UnsupportedOperationError
from qtcorr.estimation import (
    PairedSample,
    estimate_beta_h,
    estimate_named,
    load_pairs_csv,
)


def test_paired_sample_validation():
    with pytest.raises(DomainError):
        PairedSample(np.array([1.0, 2.0]), np.array([1.0]))
    with pytest.raises(DomainError):
        PairedSample(np.array([1.0, 2.0]), np.array([1.0, 2.0]))
    with pytest.raises(DomainError):
        PairedSample(np.array([1.0, 2.0, np.inf]), np.array([1.0, 2.0, 3.0]))
    s = PairedSample(np.array([1.0, 2.0, 3.0]), np.array([4.0, 5.0, 6.0]))
    assert s.n == 3


def test_comonotone_data_gives_exactly_one():
    x = np.linspace(-2, 2, 51)
    sample = PairedSample(x, x**3)
    for spec in ("gini", "or_based", "cre_based"):
        assert estimate_beta_h(sample, named_transform(spec).h) == 1.0


def test_anticomonotone_pearson():
    x = np.linspace(0.0, 1.0, 41)
    sample = PairedSample(x, -x)
    assert estimate_named(sample, "pearson") == pytest.approx(-1.0, abs=1e-12)
    assert estimate_named(sample, "rho_t") == pytest.approx(-1.0, abs=1e-12)


def test_rank_invariance_and_sign_flip():
    rng = np.random.default_rng(0)
    x = rng.normal(size=200)
    y = rng.normal(size=200) + 0.5 * x
    base = PairedSample(x, y)
    h = named_transform("gini").h
    b = estimate_beta_h(base, h)
    # strictly increasing transform of y: identical estimate
    assert estimate_beta_h(PairedSample(x, np.exp(y)), h) == b
    assert estimate_beta_h(PairedSample(x, y**3), h) == b
    # strictly decreasing transform flips the sign for a symmetric transform law
    assert estimate_beta_h(PairedSample(x, -y), h) == pytest.approx(-b, abs=1e-12)


def test_ties_warn_and_average():
    x = np.array([1.0, 2.0, 2.0, 3.0, 4.0])
    y = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    with pytest.warns(UserWarning, match="ties"):
        estimate_beta_h(PairedSample(x, y), named_transform("gini").h)


def test_degenerate_sample_errors():
    x = np.ones(10)
    y = np.arange(10.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(DegenerateError):
            estimate_beta_h(PairedSample(x, y), named_transform("gini").h)
        with pytest.raises(DegenerateError):
            estimate_named(PairedSample(x, y), "pearson")


@pytest.mark.parametrize("value", [0.3, 0.1, math.pi, 1e4 + 0.1])
def test_pearson_refuses_a_constant_column(value):
    # x - mean leaves equal residues of an ulp or so, whose sum of squares is positive
    constant, other = np.full(1000, value), np.arange(1000.0)
    for sample in (PairedSample(constant, other), PairedSample(other, constant)):
        with pytest.raises(DegenerateError):
            estimate_named(sample, "pearson")
    nearly = constant.copy()  # one value an ulp away is a spread, however small
    nearly[-1] = np.nextafter(value, np.inf)
    assert 0.0 < estimate_named(PairedSample(nearly, other), "pearson") < 1.0


def _model_sample(model, n, seed):
    return model.sample(n, seed)


def test_gaussian_model_estimate():
    model = BivariateModel(GaussianCopula(0.5), Normal(0, 1), Normal(2, 3))
    sample = _model_sample(model, 10**5, seed=2)
    got = estimate_beta_h(sample, Logistic(0, 1))
    assert got == pytest.approx(0.5, abs=0.02)


def test_independence_estimate():
    model = BivariateModel(Independence(), Exponential(1), Uniform(0, 1))
    sample = _model_sample(model, 10**5, seed=3)
    assert estimate_beta_h(sample, Logistic(0, 1)) == pytest.approx(0.0, abs=0.02)


def test_fgm_gini_estimate():
    model = BivariateModel(FGM(1.0), Uniform(0, 1), Uniform(0, 1))
    sample = _model_sample(model, 10**5, seed=4)
    assert estimate_named(sample, "gini") == pytest.approx(1 / 3, abs=0.02)


def test_gumbel_model_cre_estimate():
    model = BivariateModel(GumbelBarnett(1.0), Exponential(1), Exponential(1))
    sample = _model_sample(model, 10**5, seed=5)
    assert estimate_named(sample, "cre_based") == pytest.approx(-0.40365, abs=0.02)


def test_estimator_tracks_quadrature_truth():
    model = BivariateModel(AMH(-1.0), Logistic(0, 1), Logistic(0, 1))
    sample = _model_sample(model, 2 * 10**5, seed=6)
    spec = named_transform("egini", 3.0)
    truth = beta_h(model, spec)
    batches = np.array_split(np.arange(sample.n), 10)
    per_batch = [
        estimate_beta_h(PairedSample(sample.x[idx], sample.y[idx]), spec.h)
        for idx in batches
    ]
    se = np.std(per_batch, ddof=1) / math.sqrt(len(per_batch))
    got = estimate_beta_h(sample, spec.h)
    assert abs(got - truth) <= 3.0 * se + 1e-3


def test_estimate_named_needs_nu_for_egini():
    s = PairedSample(np.arange(5.0), np.arange(5.0))
    with pytest.raises(DomainError):
        estimate_named(s, "egini")
    assert estimate_named(s, "egini", 3.0) == 1.0


# -- CSV ingestion --------------------------------------------------------------


def test_load_pairs_csv_roundtrip(tmp_path):
    path = tmp_path / "pairs.csv"
    path.write_text("1.0,2.0\n3.5,-1.25\n4,5\n")
    sample = load_pairs_csv(str(path))
    assert sample.n == 3
    assert sample.x.tolist() == [1.0, 3.5, 4.0]


def test_load_pairs_csv_optional_header(tmp_path):
    path = tmp_path / "pairs.csv"
    path.write_text("x,y\n1.0,2.0\n3.0,4.0\n5,6\n")
    sample = load_pairs_csv(str(path))
    assert sample.n == 3


def test_load_pairs_csv_reports_bad_lines(tmp_path):
    path = tmp_path / "pairs.csv"
    path.write_text("1.0,2.0\noops,3.0\n4.0\n5.0,6.0\n7.0,eight\n")
    with pytest.raises(DomainError) as err:
        load_pairs_csv(str(path))
    message = str(err.value)
    assert "2" in message and "3" in message and "5" in message


@pytest.mark.parametrize(
    "text",
    [
        "1.0,2.0\n   \n3.0,4.0\n5,6\n",  # whitespace-only row
        "1.0,2.0\n,\n3.0,4.0\n \t, \n5,6\n",  # rows of empty cells
        '"1.0","2.0"\n3.0,"4.0"\n5,6\n',  # quoted numeric fields
        "x,y\n1.0,2.0\n3.0,4.0\n5,6\n",  # two-column header
        "1.0,y\n1.0,2.0\n3.0,4.0\n5,6\n",  # header with a numeric first field
    ],
    ids=["whitespace", "empty-cells", "quoted", "header", "half-numeric-header"],
)
def test_load_pairs_csv_skips_blank_rows_and_a_header(tmp_path, text):
    path = tmp_path / "pairs.csv"
    path.write_text(text)
    sample = load_pairs_csv(str(path))
    assert sample.x.tolist() == [1.0, 3.0, 5.0]
    assert sample.y.tolist() == [2.0, 4.0, 6.0]


@pytest.mark.parametrize(
    "text, lines",
    [
        ("x\n1.0,2.0\n3.0,4.0\n5,6\n", "1"),  # one column on line 1
        ("x,y,z\n1.0,2.0\n3.0,4.0\n5,6\n", "1"),  # three columns on line 1
        ("1,2,3\n1.0,2.0\n3.0,4.0\n5,6\n", "1"),
        ("1.0,2.0\nx,y\n3.0,4.0\n5,6\n", "2"),  # non-numeric after line 1
        ("\nx,y\n1.0,2.0\n3.0,4.0\n5,6\n", "2"),  # only line 1 may be a header
        ("1.0,2.0\noops,3.0\n4.0\n5.0,6.0\n7.0,eight\n,,,\n9,1,\n", "2, 3, 5, 7"),
        ("1.0,2.0\nnan,3\n4,inf\n-Infinity,2\n5,6\n", "2, 3, 4"),  # float() accepts these
        ("nan,3\n1.0,2.0\n", "1"),  # a non-finite line 1 is data, not a header
        ("1.0,2.0\noops,3.0\n4,INF\n", "2, 3"),
        # a row is named by the line it starts on, and only line 1 may start a header
        ('"a\nb",y\n1,2\noops,3\n4,5\n6,7\n', "4"),  # a header over lines 1 and 2
        ('x,y\n1,2\n"3\n",4\noops,3\n4,5\n', "5"),  # a row over lines 3 and 4
        ('x,y\n"1\n\n",oops\n3,4\n5,6\nnope,1\n', "2, 7"),  # a bad row over lines 2 to 4
        ('1,2\n"x\n",y\n3,4\n5,6\n', "2"),
    ],
)
def test_load_pairs_csv_lists_malformed_lines(tmp_path, text, lines):
    path = tmp_path / "pairs.csv"
    path.write_text(text)
    with pytest.raises(DomainError) as err:
        load_pairs_csv(str(path))
    assert str(err.value) == f"non-numeric or malformed rows at line(s): {lines}"


def test_a_csv_error_is_a_domain_error_naming_its_line(tmp_path, monkeypatch):
    path = tmp_path / "pairs.csv"
    path.write_text("x,y\n1,2\n3,4\n5,6\nbad\0,1\n7,8\n")
    reader = csv.reader

    class RefusingNul:  # as Python 3.10's reader meets a NUL byte
        def __init__(self, fh):
            self.rows, self.line_num = reader(fh), 0

        def __iter__(self):
            return self

        def __next__(self):
            row = next(self.rows)
            self.line_num = self.rows.line_num
            if any("\0" in field for field in row):
                raise csv.Error("line contains NUL")
            return row

    monkeypatch.setattr(csv, "reader", RefusingNul)
    with pytest.raises(DomainError) as err:
        load_pairs_csv(str(path))
    assert str(err.value) == "malformed row at line 5: line contains NUL"


def test_an_oversized_field_is_a_domain_error_naming_its_line(tmp_path):
    path = tmp_path / "pairs.csv"
    path.write_text("x,y\n1,2\n3,4\n5," + "9" * 200_000 + "\n6,7\n")
    with pytest.raises(DomainError) as err:
        load_pairs_csv(str(path))
    assert str(err.value).startswith("malformed row at line 4: field larger than field limit")


# Files for the two readers: (id, text, whether numpy's reader takes it, None where that is
# numpy's own choice).  numpy reads a subset of what float() reads, so a file it refuses
# goes to the row loop, and a file it takes must come out bit for bit as the loop reads it.
_CSV_FILES = [
    ("plain", "1.0,2.0\n3.5,-1.25\n4,5\n", True),
    ("spaces", " 1.0 , 2.0 \n3 ,4\n 5, 6\n", True),
    ("tabs", "1\t,\t2\n3,4\n5,6\n", True),
    ("signs-and-exponents", "+1,.5\n5.,1e3\n-2E-3,+4.5e+2\n", True),
    ("rounding", "2.2250738585072011e-308,0.1000000000000000055511151231257827\n"
                 "1e-400,4.9e-324\n0.30000000000000004,1.7976931348623157e308\n", True),
    ("crlf", "1,2\r\n3,4\r\n5,6\r\n", True),
    ("cr-only", "x,y\r1,2\r3,4\r5,6\r", True),
    ("mixed-endings", "1,2\r3,4\n5,6\r\n", True),
    ("blank-rows", "1,2\n\n3,4\n\n5,6\n", True),
    ("blank-line-1", "\n1,2\n3,4\n5,6\n", True),
    ("hash-header", "#x,y\n1,2\n3,4\n5,6\n", True),
    ("bom-header", "\ufeffx,y\n1,2\n3,4\n5,6\n", True),
    ("bom-data", "\ufeff1.5,2\n3,4\n5,6\n7,8\n", True),
    ("underscore", "1_0,2\n3,4\n5,6\n", False),
    ("underscore-line-2", "1,2\n1_0,2\n3,4\n5,6\n", False),
    ("hex", "1,2\n0x10,2\n3,4\n5,6\n", False),
    ("non-finite", "1,2\nnan,3\n4,inf\nInfinity,1\n5,6\n", False),
    ("non-finite-line-1", "nan,1\n1,2\n3,4\n5,6\n", False),
    ("overflow-line-1", "1e400,1\n1,2\n3,4\n5,6\n", False),
    ("whitespace-rows", "1,2\n  \n3,4\n\t\n5,6\n", False),
    ("comma-rows", "1,2\n,\n3,4\n,\n5,6\n", False),
    ("quoted", '"1","2"\n3,"4"\n5,6\n', False),
    ("quoted-header", '"x","y"\n1,2\n3,4\n5,6\n', False),
    ("quote-open-to-the-end", 'x,"y\n1,2\n3,4\n5,6\n', False),
    ("quoted-newline-in-header", '"a\nb",y\n1,2\n3,4\n5,6\n', False),
    ("hash-line", "# comment\n1,2\n3,4\n5,6\n", False),
    ("hash-row", "1,2\n#3,4\n5,6\n7,8\n", False),
    ("one-column", "1\n2\n3\n", False),
    ("three-columns", "1,2,3\n4,5,6\n7,8,9\n", False),
    ("trailing-commas", "1,2,\n3,4,\n5,6,\n", False),
    ("header-trailing-comma", "x,y,\n1,2\n3,4\n5,6\n", False),
    ("empty-field-line-1", "1,\n3,4\n5,6\n7,8\n", True),  # a header by the rule
    ("empty-field-line-2", "1,2\n3,\n5,6\n7,8\n", False),
    ("arabic-indic-digits", "\u0661,\u0662\n3,4\n5,6\n7,8\n", None),
    ("nbsp", "1\xa0,2\n3,\xa04\n5,6\n", None),
    ("one-row", "1,2\n", True),
    ("header-only", "x,y\n", False),
    ("empty", "", False),
    ("nul-header", "x\0,y\n1,2\n3,4\n5,6\n", False),  # csv refuses NUL before 3.11
    *(
        (f"header-case-{i}", text, None)
        for i, text in enumerate(
            [
                "1.0,2.0\n   \n3.0,4.0\n5,6\n",
                "1.0,2.0\n,\n3.0,4.0\n \t, \n5,6\n",
                '"1.0","2.0"\n3.0,"4.0"\n5,6\n',
                "x,y\n1.0,2.0\n3.0,4.0\n5,6\n",
                "1.0,y\n1.0,2.0\n3.0,4.0\n5,6\n",
            ]
        )
    ),
]


@pytest.mark.parametrize(
    "text, numpy_reads", [f[1:] for f in _CSV_FILES], ids=[f[0] for f in _CSV_FILES]
)
def test_numpys_reader_and_the_row_loop_read_a_file_alike(
    tmp_path, monkeypatch, text, numpy_reads
):
    import qtcorr.estimation as estimation

    path = tmp_path / "pairs.csv"
    path.write_text(text, encoding="utf-8", newline="")

    def read():
        try:
            sample = load_pairs_csv(str(path))
        except (DomainError, csv.Error) as exc:
            return str(exc)
        return sample.x.tobytes(), sample.y.tobytes()

    taken = []
    parsed = estimation._parsed
    monkeypatch.setattr(estimation, "_parsed", lambda fh: taken.append(parsed(fh)) or taken[-1])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fast = read()
    if numpy_reads is not None:
        assert (taken[0] is not None) == numpy_reads
    monkeypatch.setattr(estimation, "_parsed", lambda fh: None)
    assert read() == fast


def test_a_valid_file_never_reaches_the_row_loop(tmp_path, monkeypatch):
    x, y = np.random.default_rng(3).normal(size=(2, 100_000))
    path = tmp_path / "pairs.csv"
    path.write_text("x,y\n" + "".join(f"{a!r},{b!r}\n" for a, b in zip(x.tolist(), y.tolist())))

    def refuse(*args, **kwargs):
        raise AssertionError("the row loop ran")

    monkeypatch.setattr(csv, "reader", refuse)
    sample = load_pairs_csv(str(path))
    assert sample.x.tobytes() == x.tobytes() and sample.y.tobytes() == y.tobytes()


def test_a_header_only_file_has_too_few_pairs_and_no_numpy_warning(tmp_path, recwarn):
    path = tmp_path / "pairs.csv"
    path.write_text("x,y\n")
    with pytest.raises(DomainError, match="at least 3 pairs"):
        load_pairs_csv(str(path))
    assert len(recwarn) == 0


@pytest.mark.parametrize(
    "text, n", [("x,y\n1.5,2\n3,4\n5,6\n", 3), ("1.5,2\n3,4\n5,6\n7,8\n", 4)],
    ids=["header", "no-header"],
)
def test_a_byte_order_mark_is_not_a_header(tmp_path, text, n):
    path = tmp_path / "pairs.csv"
    path.write_bytes(b"\xef\xbb\xbf" + text.encode())
    sample = load_pairs_csv(str(path))
    assert sample.n == n and sample.x[0] == 1.5


@pytest.mark.parametrize("bom", [b"", b"\xef\xbb\xbf"])
@pytest.mark.parametrize("at", [4, 8191, 8192, 50_000, -1])
@pytest.mark.parametrize("bad", [b"\xe9", b"\xe2\x82"])  # a Latin-1 byte, a cut sequence
def test_an_undecodable_byte_is_named_by_its_offset(tmp_path, bom, at, bad):
    rows = b"x,y\n" + b"".join(b"%d,%d\n" % (i, i) for i in range(10_000))
    data = bom + rows[:at] + bad + rows[at:] if at >= 0 else bom + rows + bad
    path = tmp_path / "pairs.csv"
    path.write_bytes(data)
    with pytest.raises(DomainError) as err:
        load_pairs_csv(str(path))
    assert str(err.value) == f"{path} is not UTF-8 text at byte offset {data.index(bad)}"


def test_estimate_named_reads_a_label_as_named_transform_does():
    from qtcorr.cli import _NAMED_ESTIMATORS

    s = PairedSample(np.arange(5.0), np.arange(5.0) ** 2)
    assert estimate_named(s, " Pearson ") == estimate_named(s, "pearson")
    assert estimate_named(s, "Rho_T") == estimate_named(s, "rho_t")
    assert estimate_named(s, "GINI") == estimate_named(s, "gini")
    assert estimate_named(s, "EGINI", 0.5) == estimate_named(s, "egini", 0.5)
    with pytest.raises(DomainError) as err:
        estimate_named(s, "kendall")
    assert all(repr(label) in str(err.value) for label in _NAMED_ESTIMATORS)


# -- one sort per column: oracles, counts, warnings ----------------------------


def _rankdata(values):
    from scipy.stats import rankdata

    return rankdata(values, method="average")


def _oracle_rank_cell_means(h, column):
    """Former implementation: stable argsort, np.unique pooling, np.add.at."""
    n = column.size
    try:
        half = n // 2
        lower = np.diff(h.quantile_integral(np.arange(half + 1) / n))
        upper = np.diff(h.quantile_integral_comp(np.arange(n - half + 1) / n))[::-1]
        cell_means = np.concatenate([lower, upper]) * n
    except UnsupportedOperationError:
        return h.quantile(_rankdata(column) / (n + 1.0))
    order = np.empty(n, dtype=np.int64)
    order[np.argsort(column, kind="stable")] = np.arange(n)
    values = cell_means[order]
    _, inverse, counts = np.unique(column, return_inverse=True, return_counts=True)
    if counts.max() > 1:
        sums = np.zeros(counts.size)
        np.add.at(sums, inverse, values)
        values = (sums / counts)[inverse]
    return values


def _oracle_rank_stratum_values(h, column):
    """Former Monte Carlo helper: cell means at stable-argsort ranks, no pooling."""
    n = column.size
    half = n // 2
    lower = np.diff(h.quantile_integral(np.arange(half + 1) / n))
    upper = np.diff(h.quantile_integral_comp(np.arange(n - half + 1) / n))[::-1]
    cell_means = np.concatenate([lower, upper]) * n
    ranks = np.empty(n, dtype=np.int64)
    ranks[np.argsort(column, kind="stable")] = np.arange(n)
    return cell_means[ranks]


def _oracle_rho_t_hat(sample):
    """Former rho_t plug-in: order statistics read by np.interp at average ranks."""
    n = sample.n
    gyx = np.interp(_rankdata(sample.x), np.arange(1, n + 1), np.sort(sample.y))
    fxy = np.interp(_rankdata(sample.y), np.arange(1, n + 1), np.sort(sample.x))
    den = np.cov(sample.x, gyx)[0, 1] * np.cov(sample.y, fxy)[0, 1]
    return np.cov(sample.x, sample.y)[0, 1] / np.sqrt(den)


def _tied_columns():
    rng = np.random.default_rng(11)
    x = rng.normal(size=4000)
    y = np.exp(0.6 * x + rng.normal(size=4000))
    yield x, y  # untied
    for decimals in (1, 0):
        yield np.round(x, decimals), np.round(y, decimals)


def _mixed_columns():
    # one column tied, the other not: each takes its own route through the cell dots
    x, y = next(_tied_columns())
    for decimals in (1, 0):
        yield np.round(x, decimals), y
        yield x, np.round(y, decimals)


_ORACLE_LAWS = [
    Uniform(0, 1),
    Exponential(1),
    Logistic(0, 1),
    Pareto(0.5),
    Power(3.0),
    Empirical(np.random.default_rng(3).gamma(2.0, size=300)),
]


def test_rho_t_matches_interp_oracle():
    for x, y in (*_tied_columns(), *_mixed_columns()):
        sample = PairedSample(x, y)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            got = estimate_named(sample, "rho_t")
        assert got == pytest.approx(_oracle_rho_t_hat(sample), rel=1e-14, abs=0.0)


def _counting(monkeypatch, calls, name):
    original = getattr(np, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(np, name, counted)


@pytest.mark.parametrize("which", ["gini", "rho_t"])
def test_one_sort_per_column(monkeypatch, which):
    rng = np.random.default_rng(8)
    x = np.round(rng.normal(size=10_000), 1)
    sample = PairedSample(x, np.round(x + rng.normal(size=10_000), 1))
    sorts, others = [], []
    _counting(monkeypatch, sorts, "argsort")
    _counting(monkeypatch, sorts, "sort")
    _counting(monkeypatch, others, "unique")
    _counting(monkeypatch, others, "interp")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        estimate_named(sample, which)
    assert len(sorts) == 2
    assert others == []


def test_pearson_reads_no_ranks(monkeypatch):
    # Var(x), Var(y) and Cov(x, y) come from a rank-free scan: a fresh tied sample is
    # neither sorted nor warned about
    rng = np.random.default_rng(8)
    x = np.round(rng.normal(size=10_000), 1)
    sample = PairedSample(x, np.round(x + rng.normal(size=10_000), 1))
    sorts = []
    _counting(monkeypatch, sorts, "argsort")
    _counting(monkeypatch, sorts, "sort")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        estimate_named(sample, "pearson")
    assert sorts == []


def test_a_beta_estimate_streams_only_the_two_pairs_it_reads(monkeypatch):
    # x sorted and x in y's order; sorted y serves only rho_t and the tie warning
    import qtcorr.estimation as estimation

    rng = np.random.default_rng(8)
    x = rng.normal(size=100_000)
    sample = PairedSample(x, x + rng.normal(size=100_000))
    estimation._sample_view(sample)._moments  # the rank-free scan's dots, before counting
    blocks, dots = [], []
    cell_blocks, dot = estimation._cell_blocks, estimation._dot

    def counted_blocks(h, n, *edges):
        for item in cell_blocks(h, n, *edges):
            blocks.append(item)
            yield item

    monkeypatch.setattr(estimation, "_cell_blocks", counted_blocks)
    monkeypatch.setattr(estimation, "_dot", lambda a, b: dots.append(a.size) or dot(a, b))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # untied: every pair streams the cells
        estimate_named(sample, "gini")
    # one pass; its first item is the mean of all cells, then one dot per block and pair
    assert len(blocks) > 2 and len(dots) == 2 * (len(blocks) - 1)


@pytest.mark.parametrize(
    "call",
    [
        lambda s: estimate_beta_h(s, named_transform("gini").h),
        lambda s: estimate_named(s, "gini"),
        lambda s: estimate_named(s, "rho_t"),
    ],
    ids=["estimate_beta_h", "gini", "rho_t"],
)
def test_tie_warning_names_the_callers_line(call):
    sample = PairedSample(
        np.array([1.0, 2.0, 2.0, 3.0, 4.0]), np.array([1.0, 1.0, 3.0, 4.0, 5.0])
    )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        call(sample)
    assert [str(w.message) for w in caught] == [
        "ties in the x column resolved by average ranks",
        "ties in the y column resolved by average ranks",
    ]
    assert all(w.filename == __file__ for w in caught)


def test_untied_sample_does_not_warn():
    rng = np.random.default_rng(9)
    sample = PairedSample(rng.normal(size=500), rng.normal(size=500))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for which in ("gini", "rho_t", "pearson"):
            estimate_named(sample, which)


# -- one sort per sample: identity, the ranked-view memo, sorted-order oracles --

from qtcorr.estimation import _Ranked, _ranked_memo, _runs, _run_sums  # noqa: E402
from qtcorr.estimation import _sample_view as _ranked  # noqa: E402


def _sorted_column(column):
    """A column sorted once, centred and summed over its tied runs, as ``_cell_dots`` reads it."""
    ordered = np.sort(column)
    bounds = _runs(ordered)
    ordered -= ordered.mean()
    return bounds, _run_sums(ordered, bounds)


_NAMED = [
    ("pearson", None),
    ("gini", None),
    ("or_based", None),
    ("cre_based", None),
    ("rho_t", None),
    ("egini", 0.5),
    ("egini", 3.0),
]


def _sweep(sample):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return [estimate_named(sample, which, nu) for which, nu in _NAMED]


def test_paired_sample_is_compared_by_identity_and_owns_read_only_columns():
    x, y = np.array([1.0, 2.0, 2.0, 3.0, 5.0]), np.array([2.0, 1.0, 4.0, 3.0, 6.0])
    a, b = PairedSample(x, y), PairedSample(x, y)
    assert a == a and a != b
    assert hash(a) == hash(a) and len({a, b, a}) == 2
    with pytest.raises(ValueError):
        a.x[0] = 9.0
    with pytest.raises(ValueError):
        a.y[0] = 9.0
    before = _sweep(a)
    x[:] = x[::-1]
    y[0] = -7.0
    assert _sweep(a) == before
    assert a.x.tolist() == [1.0, 2.0, 2.0, 3.0, 5.0]


def test_all_named_estimators_share_one_sort_per_column(monkeypatch):
    rng = np.random.default_rng(8)
    samples = []
    for _ in range(2):
        x = np.round(rng.normal(size=10_000), 1)
        samples.append(PairedSample(x, np.round(x + rng.normal(size=10_000), 1)))
    sorts = []
    _counting(monkeypatch, sorts, "argsort")
    _counting(monkeypatch, sorts, "sort")
    _sweep(samples[0])
    assert len(sorts) == 2
    _sweep(samples[0])
    assert len(sorts) == 2
    _sweep(samples[1])
    assert len(sorts) == 4


def test_interleaved_samples_match_a_cleared_cache():
    a, b = (PairedSample(x, y) for x, y in list(_tied_columns())[1:])
    fresh = {}
    for sample in (a, b):
        _ranked_memo.clear()
        fresh[sample] = _sweep(sample)
    assert [_sweep(s) for s in (a, b, a)] == [fresh[a], fresh[b], fresh[a]]


@pytest.mark.parametrize(
    "call",
    [
        lambda s: estimate_beta_h(s, named_transform("gini").h),
        lambda s: estimate_named(s, "egini", 3.0),
        lambda s: estimate_named(s, "rho_t"),
    ],
    ids=["estimate_beta_h", "egini", "rho_t"],
)
def test_cached_tied_sample_warns_on_every_call(call):
    sample = PairedSample(
        np.array([1.0, 2.0, 2.0, 3.0, 4.0]), np.array([1.0, 1.0, 3.0, 4.0, 5.0])
    )
    views = []
    for _ in range(2):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            call(sample)
        assert [str(w.message) for w in caught] == [
            "ties in the x column resolved by average ranks",
            "ties in the y column resolved by average ranks",
        ]
        assert all(w.filename == __file__ for w in caught)
        views.append(_ranked(sample))
    assert views[0] is views[1]


def test_ranking_a_new_sample_first_releases_the_last_view(monkeypatch):
    import weakref

    a, b = (PairedSample(x, y) for x, y in list(_tied_columns())[1:])
    _sweep(a)
    built = (v for pair in _ranked(a).pairs.values() for v in pair)
    held = [weakref.ref(v) for v in built if isinstance(v, np.ndarray)]
    alive_at_sort = []
    for name in ("sort", "argsort"):
        original = getattr(np, name)

        def probe(*args, original=original, **kwargs):
            alive_at_sort.append(sum(ref() is not None for ref in held))
            return original(*args, **kwargs)

        monkeypatch.setattr(np, name, probe)
    _sweep(b)
    assert alive_at_sort == [0, 0]  # b's two sorts, with none of a's arrays left
    assert list(_ranked_memo) == [b]


def _oracle_estimate_beta_h(sample, h):
    """Former estimate_beta_h: cell means scattered to data order, np.cov."""
    tx = _oracle_rank_cell_means(h, sample.x)
    ty = _oracle_rank_cell_means(h, sample.y)
    return np.cov(sample.x, ty)[0, 1] / np.cov(sample.x, tx)[0, 1]


@pytest.mark.parametrize("h", _ORACLE_LAWS, ids=lambda h: h.name)
def test_sorted_order_estimators_match_scatter_oracle(h):
    for x, y in (*_tied_columns(), *_mixed_columns()):
        sample = PairedSample(x, y)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            got = estimate_beta_h(sample, h)
        assert got == pytest.approx(_oracle_estimate_beta_h(sample, h), rel=1e-14, abs=0.0)
        for column in (x, y):  # the decomposition's self-covariances
            want = np.cov(column, _oracle_rank_cell_means(h, column))[0, 1]
            got = _Ranked((column,)).cell_dots(h)[0, 0] / (column.size - 1)
            assert got == pytest.approx(want, rel=1e-14, abs=0.0)


def test_pearson_matches_former_std_ratio():
    for x, y in _tied_columns():
        want = np.cov(x, y)[0, 1] / (np.std(x, ddof=1) * np.std(y, ddof=1))
        got = estimate_named(PairedSample(x, y), "pearson")
        assert got == pytest.approx(want, rel=1e-14, abs=0.0)


def test_sorted_order_covariance_keeps_full_precision():
    # long same-sign stretches: a running-sum dot product is off by about 1e-14 here
    x = np.round(np.random.default_rng(0).standard_exponential(200_000) ** 2, 1)
    xs = np.sort(x)
    sizes = np.diff(np.append(np.flatnonzero(np.r_[True, xs[1:] != xs[:-1]]), x.size))
    for h in (Exponential(1), Logistic(0, 1), Uniform(0, 1)):
        runs = np.split(h.cell_means(x.size), np.cumsum(sizes)[:-1])
        cells = np.repeat([math.fsum(r) / r.size for r in runs], sizes)  # pooled grid
        mx, mc = math.fsum(xs) / x.size, math.fsum(cells) / x.size
        want = math.fsum((xs - mx) * (cells - mc)) / (x.size - 1)
        got = _Ranked((x,)).cell_dots(h)[0, 0] / (x.size - 1)
        assert got == pytest.approx(want, rel=2e-15, abs=0.0)


# -- centred once: the blocked dot kernel, invariances, allocation pins --------

from qtcorr.distributions import ExpTransformed  # noqa: E402
from qtcorr.estimation import _dot  # noqa: E402


@pytest.mark.parametrize("n", [1, 2, 127, 128, 129, 1000, 10**6 + 37])
def test_dot_of_sorted_same_sign_products_matches_fsum(n):
    rng = np.random.default_rng(n)
    a = np.sort(rng.standard_exponential(n)) + 0.5
    b = np.sort(rng.standard_exponential(n) ** 2)
    want = math.fsum(a * b)
    assert _dot(a, b) == pytest.approx(want, rel=2e-15, abs=0.0)
    assert _dot(-a, b) == pytest.approx(-want, rel=2e-15, abs=0.0)


_INVARIANCE_LAWS = [*_ORACLE_LAWS, ExpTransformed(Normal(0, 0.5))]


@pytest.mark.parametrize("h", _INVARIANCE_LAWS, ids=lambda h: h.name)
def test_estimate_beta_h_reads_y_only_through_its_ranks(h):
    for x, y in _tied_columns():
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            want = estimate_beta_h(PairedSample(x, y), h)
            got = estimate_beta_h(PairedSample(x, np.exp(y / 4)), h)
        assert got == want


@pytest.mark.parametrize("h", _ORACLE_LAWS + [Normal(0.0, 1.0)], ids=lambda h: h.name)
def test_estimate_beta_h_is_free_of_an_affine_map_of_h(h):
    for x, y in (*_tied_columns(), *_mixed_columns()):
        sample = PairedSample(x, y)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            want = estimate_beta_h(sample, h)
            for a, b in ((1e6, 3.0), (-2.5, 1e-3), (1e12, 1e4)):
                assert abs(estimate_beta_h(sample, Affine(h, a, b)) - want) <= 1e-14


def test_plug_ins_are_location_invariant():
    for x, y in _tied_columns():
        near, far = _sweep(PairedSample(x, y)), _sweep(PairedSample(x + 1e4, y))
        assert far == pytest.approx(near, rel=1e-12, abs=0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for h in (ExpTransformed(Normal(0, 0.5)), Normal(1e4, 1.0)):
                want = estimate_beta_h(PairedSample(x, y), h)
                got = estimate_beta_h(PairedSample(x + 1e4, y), h)
                assert got == pytest.approx(want, rel=1e-12, abs=0.0)


def _pin_samples(n, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=n)
    y = x + rng.normal(size=n)
    tx, ty = np.round(x, 1), np.round(y, 1)
    return {
        "clean": PairedSample(x, y),
        "tied": PairedSample(tx, ty),
        "x_tied": PairedSample(tx, y),
        "y_tied": PairedSample(x, ty),
    }


def _traced_peak(sample, which, nu=None):
    """Traced peak of a repeat call on the ranked sample above the memory in use before it,
    in units of n floats; tracemalloc sees numpy's data buffers."""
    import tracemalloc

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        estimate_named(sample, which, nu)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            estimate_named(sample, which, nu)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return (peak - before) / (8 * sample.n)


_ALLOC_PIN_SAMPLES = _pin_samples(100_000, 5)


@pytest.mark.parametrize(
    "which, variant, pin",
    [
        *(
            (which, variant, 1.25)  # a few blocks of streamed cells: 1.0 at this n
            for which in ("gini", "or_based", "cre_based")
            for variant in ("clean", "x_tied", "y_tied")
        ),
        ("gini", "tied", 0.5),
        ("or_based", "tied", 0.5),
        ("cre_based", "tied", 0.5),
        *(("rho_t", variant, 0.5) for variant in _ALLOC_PIN_SAMPLES),  # dots over runs
        ("pearson", "clean", 0.5),  # centred block by block
        ("pearson", "tied", 0.5),
    ],
)
def test_repeat_estimate_allocates_at_most_its_pin(which, variant, pin):
    assert _traced_peak(_ALLOC_PIN_SAMPLES[variant], which) <= pin


def test_ties_are_found_before_centring():
    # centred by the mean 3.2, the values 0 and 1e-300 would read the same
    x = np.array([0.0, 1e-300, 2.0, 5.0, 9.0])
    y = np.array([1e-300, 0.0, 3.0, 4.0, 8.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for which in ("gini", "rho_t", "pearson"):
            estimate_named(PairedSample(x, y), which)


# -- rank-cell means without the grid: run edges and streamed cells -------------

from qtcorr.estimation import _cell_blocks, _cell_dots  # noqa: E402

_CELL_SIZES = [3, 4, 5, 1000, 10**5 + 1]


@pytest.mark.parametrize("n", _CELL_SIZES)
@pytest.mark.parametrize(
    "h", _INVARIANCE_LAWS + [Normal(1e4, 2.0), Affine(Pareto(0.5), -3.0, 0.5)], ids=lambda h: h.name
)
def test_streamed_cells_are_cell_means_bit_for_bit(h, n):
    # the estimators stream H's standard shape (a located H scales their dots once)
    h = h.standard_form[0]
    grid = h.cell_means(n)
    cells = np.full(n, np.nan)
    blocks = _cell_blocks(h, n)
    c = next(blocks)
    for k, block in blocks:
        cells[k : k + block.size] = block
    assert np.array_equal(cells, grid)
    assert c == pytest.approx(math.fsum(grid) / n, rel=1e-13, abs=1e-15)


def _oracle_cell_dot(h, bounds, partner):
    """Former grid route: the full cell grid, centred, each tied run pooled by np.repeat."""
    cells = h.cell_means(partner.size)
    cells -= cells.mean()
    if bounds is not None:
        sizes = np.diff(bounds)
        cells = np.repeat(np.add.reduceat(cells, bounds[:-1]) / sizes, sizes)
    products = partner * cells
    return math.fsum(products), math.fsum(np.abs(products))


def _run_bound_cases(n):
    half = n // 2
    return {
        "untied": None,
        "straddling n // 2": np.unique([0, max(half - 1, 0), min(half + 2, n), n]),
        "holding cells 0 and n - 1": np.unique([0, 2, n - 2, n]),
        "n - 1 and a singleton": np.array([0, n - 1, n]),
        "a singleton and n - 1": np.array([0, 1, n]),
    }


@pytest.mark.parametrize("n", _CELL_SIZES)
@pytest.mark.parametrize("h", _INVARIANCE_LAWS, ids=lambda h: h.name)
def test_run_edge_cell_dots_match_the_pooled_grid(h, n):
    rng = np.random.default_rng(n)
    cases = _run_bound_cases(n)
    for first in cases.values():
        for second in (None, cases["straddling n // 2"]):  # alone, mixed, or two tied columns
            partners = [rng.normal(size=n) for _ in range(2)]
            for p in partners:
                p -= p.mean()
            got = _cell_dots(
                h, n, *((b, _run_sums(p, b)) for b, p in zip((first, second), partners))
            )
            for value, b, p in zip(got, (first, second), partners):
                want, scale = _oracle_cell_dot(h, b, p)
                assert abs(value - want) <= 1e-14 * scale


@pytest.mark.parametrize("h", _INVARIANCE_LAWS, ids=lambda h: h.name)
def test_constant_y_column_estimates_zero(h):
    x = np.random.default_rng(2).normal(size=1000)
    for y in (np.full(1000, 0.3), np.full(1000, 7.0)):
        for column in (x, np.round(x, 1)):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                assert abs(estimate_beta_h(PairedSample(column, y), h)) <= 1e-15


@pytest.mark.parametrize("h", _INVARIANCE_LAWS, ids=lambda h: h.name)
def test_all_tied_x_column_is_degenerate(h):
    for n in (10, 1001):
        for value in (1.0, 0.1, 0.3, 1e4 + 0.1, math.pi):
            for y in (np.arange(float(n)), np.round(np.arange(float(n)) / 7)):
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    with pytest.raises(DegenerateError):
                        estimate_beta_h(PairedSample(np.full(n, value), y), h)


@pytest.mark.parametrize("variant", ["clean", "tied", "x-tied", "y-tied"])
def test_an_empirical_law_is_summed_at_most_twice_per_estimate(monkeypatch, variant):
    rng = np.random.default_rng(12)
    x = rng.normal(size=10**5)
    y = x + rng.normal(size=10**5)
    if variant in ("tied", "x-tied"):
        x = np.round(x, 1)
    if variant in ("tied", "y-tied"):
        y = np.round(y, 1)
    sample, h = PairedSample(x, y), Empirical(rng.gamma(2.0, size=10**5))
    calls = []
    original = Empirical._step_integral

    def counted(values, p):
        calls.append(p.size)
        return original(values, p)

    monkeypatch.setattr(Empirical, "_step_integral", staticmethod(counted))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for _ in range(2):
            before = len(calls)
            estimate_beta_h(sample, h)
            assert len(calls) - before <= 2


def test_repeat_cell_dots_allocate_a_fixed_number_of_blocks():
    # untied cells stream in blocks of 16,384: the peak is a few blocks at any n, here
    # under half a sample of 4 * 10**5 floats; tied runs read QI at their edges only,
    # also beside an untied partner column
    for variant, sample in _pin_samples(400_000, 6).items():
        for which, nu in [("gini", None), ("or_based", None), ("cre_based", None),
                          ("egini", 0.5), ("egini", 3.0)]:
            assert _traced_peak(sample, which, nu) <= 0.5, (variant, which, nu)


# -- Monte Carlo values are the estimators on the drawn sample ------------------

from qtcorr.bivariate import child_rng  # noqa: E402
from qtcorr.correlation import (  # noqa: E402
    CorrelationSpec,
    _evaluator,
    beta_h_reversed,
    pearson,
    rho_t,
    symmetric_nu,
    symmetric_nu_bar,
    symmetric_tau,
)
from qtcorr.decomposition import StandbySystem, _system_sample, decompose  # noqa: E402
from qtcorr.distributions import Distribution, Weibull  # noqa: E402
from qtcorr.measures import IntegrationConfig  # noqa: E402

_MC = IntegrationConfig(method="monte_carlo", mc_samples=20_000, seed=3)


def _mc_indices(model, spec):
    """The seven indices of a model under _MC, read from one evaluator."""
    directed = [f(model, spec, _MC) for f in (beta_h, beta_h_reversed)]
    paired = [f(model, _MC) for f in (pearson, rho_t)]
    symmetric = [f(model, spec, _MC) for f in (symmetric_tau, symmetric_nu, symmetric_nu_bar)]
    return directed + paired + symmetric


def _count_grid_reads(monkeypatch, estimation):
    """Refuse the n-cell grid and record (law, n) for every stream of cells."""

    def refuse(self, n):
        raise AssertionError("a Monte Carlo path built the n-cell grid")

    passes, blocks = [], estimation._cell_blocks
    monkeypatch.setattr(Distribution, "cell_means", refuse)
    monkeypatch.setattr(
        estimation, "_cell_blocks", lambda h, n, *a: passes.append((h, n)) or blocks(h, n, *a)
    )
    return passes


_EQUIVALENCE_MODELS = [
    BivariateModel(FGM(1.0), Exponential(1), Logistic(0, 1)),
    BivariateModel(GaussianCopula(0.6), Normal(0.5, 2.0), Logistic(0, 1)),
    BivariateModel(GumbelBarnett(1.0), Weibull(1, 2), Weibull(1, 0.5)),
    BivariateModel(AMH(-1.0), Pareto(0.3), Exponential(1)),
]


@pytest.mark.parametrize("model", _EQUIVALENCE_MODELS, ids=lambda m: type(m.copula).__name__)
@pytest.mark.parametrize("h", [Exponential(1), Pareto(0.5), _ORACLE_LAWS[-1]], ids=lambda h: h.name)
def test_monte_carlo_indices_are_the_estimators_on_their_draw(model, h):
    # strictly increasing margins rank x and y as their scores: one set of plug-ins
    _evaluator.cache_clear()
    b_xy, b_yx, r, t = _mc_indices(model, CorrelationSpec(h))[:4]
    ev = _evaluator(model, _MC)
    x, y = ev.view.values
    xy, yx = PairedSample(x, y), PairedSample(y, x)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # untied: no column pools a run
        want = [
            estimate_beta_h(xy, h),
            estimate_beta_h(yx, h),
            estimate_named(xy, "pearson"),
            estimate_named(xy, "rho_t"),
        ]
    assert [b_xy, b_yx, r, t] == pytest.approx(want, rel=0.0, abs=1e-15)


def test_equal_margins_keep_rho_t_equal_to_pearson():
    # C(F, F) is Var(X), as under quadrature: the same covariance, not a second plug-in
    model = BivariateModel(AMH(-1.0), Logistic(0, 1), Logistic(0, 1))
    _evaluator.cache_clear()
    assert rho_t(model, _MC) == pearson(model, _MC)


@pytest.mark.parametrize("h", [Exponential(1), Pareto(0.5), Logistic(0, 1)], ids=lambda h: h.name)
def test_a_step_margin_is_ranked_by_its_scores(h):
    # x ties where u does not: H is read at u's ranks, never at x's pooled ones
    f = Empirical(np.arange(1.0, 21.0))
    model = BivariateModel(FGM(1.0), f, Exponential(1))
    spec = CorrelationSpec(h)
    _evaluator.cache_clear()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = [beta_h(model, spec, _MC), beta_h_reversed(model, spec, _MC)]
    u, v = model.copula.scores(_MC.mc_samples, child_rng(_MC.seed, "correlation.beta_h"))
    x, y = _evaluator(model, _MC).view.values
    assert np.array_equal(x, f.quantile(u)) and np.unique(x).size == 20
    hu, hv = _oracle_rank_stratum_values(h, u), _oracle_rank_stratum_values(h, v)
    want = [
        np.cov(x, hv)[0, 1] / np.cov(x, hu)[0, 1],
        np.cov(hu, y)[0, 1] / np.cov(y, hv)[0, 1],
    ]
    assert got == pytest.approx(want, rel=0.0, abs=1e-15)


@pytest.mark.parametrize("g", [Exponential(1), Pareto(0.5), _ORACLE_LAWS[-1]], ids=lambda g: g.name)
def test_decomposition_shares_are_the_estimators_on_the_system_sample(g):
    system = StandbySystem((Exponential(1), Weibull(1, 2), Exponential(0.5)))
    result = decompose(system, g, 20_000, seed=4)
    xs, t = _system_sample(system, 20_000, 4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        want = [estimate_beta_h(PairedSample(x, t), g) for x in xs]
    assert [beta for beta, _ in result.terms] == pytest.approx(want, rel=0.0, abs=1e-15)
    mc_estimate = _cell_dots(g, t.size, _sorted_column(t))[0] / (t.size - 1)
    assert result.mc_estimate == pytest.approx(mc_estimate, rel=0.0, abs=1e-15)


def test_decomposition_refuses_a_component_without_spread_as_the_estimator_does():
    system = StandbySystem((Empirical([2.0] * 3), Exponential(1)))
    xs, t = _system_sample(system, 20_000, 4)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # x_0 is one tied run
        with pytest.raises(DegenerateError):
            estimate_beta_h(PairedSample(xs[0], t), Exponential(1))
    with pytest.raises(DegenerateError, match="component 0 has a degenerate lifetime law"):
        decompose(system, Exponential(1), 20_000, seed=4)


@pytest.mark.parametrize("h", [Exponential(1), Pareto(0.5), Empirical(np.arange(1.0, 50.0))])
def test_monte_carlo_indices_build_no_grid(monkeypatch, h):
    import qtcorr.estimation as estimation

    passes = _count_grid_reads(monkeypatch, estimation)
    _evaluator.cache_clear()
    _mc_indices(BivariateModel(FGM(1.0), Exponential(1), Logistic(0, 1)), CorrelationSpec(h))
    # one stream of the cells of H's standard shape (an Empirical H's centred values) for all
    # seven indices
    assert passes == [(h.standard_form[0], _MC.mc_samples)]


def test_the_reversed_and_symmetric_indices_reuse_the_pass_of_beta_h(monkeypatch):
    import qtcorr.estimation as estimation

    model = BivariateModel(FGM(1.0), Exponential(1), Logistic(0, 1))
    spec = CorrelationSpec(Exponential(1))
    _evaluator.cache_clear()
    passes = _count_grid_reads(monkeypatch, estimation)
    beta_h(model, spec, _MC)
    assert len(passes) == 1  # x and y at the ranks of u and of v: the draw's four pairs
    for index in (beta_h_reversed, symmetric_tau, symmetric_nu):
        index(model, spec, _MC)
    assert len(passes) == 1


@pytest.mark.parametrize("g", [Exponential(1), Pareto(0.5)])
def test_decomposition_builds_no_grid(monkeypatch, g):
    import qtcorr.estimation as estimation

    system = StandbySystem((Exponential(1), Weibull(1, 2), Exponential(0.5)))
    passes = _count_grid_reads(monkeypatch, estimation)
    decompose(system, g, 20_000, seed=4)
    # one pass for every numerator, denominator and mc_estimate, one for the ten batches
    assert passes == [(g, 20_000), (g, 2_000)]
