"""Tests for demand models, covariance factors, and CSV ingestion."""

import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stockbound import (
    DemandDataError,
    EmpiricalDemand,
    GaussianModel,
    WeibullModel,
    covariance_factor,
    load_demand_csv,
    model_from_dict,
    validate_delta,
    validate_lead_time,
)

from stockbound import demand
from oracles import load_demand_csv_reference


class TestGaussianModel:
    def test_univariate_accessors(self):
        m = GaussianModel.univariate(2.5)
        assert m.dim == 1
        assert m.covariance[0, 0] == 2.5
        assert m.mean[0] == 0.0

    def test_bivariate_accessors(self):
        m = GaussianModel.bivariate(1.0, 4.0, 0.5)
        assert m.dim == 2
        assert m.var_x == 1.0
        assert m.var_y == 4.0
        assert m.correlation == pytest.approx(0.5, abs=1e-15)
        # off-diagonal is rho * sigma_x * sigma_y exactly
        assert m.covariance[0, 1] == 0.5 * 1.0 * 2.0
        assert m.covariance[0, 1] == m.covariance[1, 0]

    def test_mean_vector_preserved(self):
        m = GaussianModel.bivariate(1.0, 1.0, 0.0, mean=(3.0, -1.0))
        assert m.mean.tolist() == [3.0, -1.0]

    def test_rejects_asymmetric_covariance(self):
        with pytest.raises(ValueError, match="symmetric"):
            GaussianModel([0.0, 0.0], [[1.0, 0.2], [0.3, 1.0]])

    def test_rejects_indefinite_covariance(self):
        with pytest.raises(ValueError, match="positive semidefinite"):
            GaussianModel([0.0, 0.0], [[1.0, 2.0], [2.0, 1.0]])

    def test_rejects_correlation_outside_unit_interval(self):
        with pytest.raises(ValueError):
            GaussianModel.bivariate(1.0, 1.0, 1.2)

    def test_rejects_nonfinite_entries(self):
        with pytest.raises(ValueError):
            GaussianModel([0.0], [[math.nan]])

    def test_rejects_negative_variance(self):
        with pytest.raises(ValueError):
            GaussianModel.univariate(-1.0)

    def test_perfect_correlation_is_allowed(self):
        m = GaussianModel.bivariate(1.0, 1.0, 1.0)
        assert m.correlation == pytest.approx(1.0)

    def test_zero_variance_allowed_but_correlation_undefined(self):
        m = GaussianModel([0.0, 0.0], [[0.0, 0.0], [0.0, 1.0]])
        assert m.var_x == 0.0
        with pytest.raises(ValueError, match="zero-variance"):
            m.correlation

    def test_immutable(self):
        m = GaussianModel.univariate(1.0)
        with pytest.raises((ValueError, AttributeError)):
            m.covariance[0, 0] = 9.0


class TestWeibullModel:
    def test_moments(self):
        w = WeibullModel(2.0, 1.0)
        # Gamma(1.5) = sqrt(pi)/2
        assert w.mean == pytest.approx(math.sqrt(math.pi) / 2.0, rel=1e-14)
        assert w.variance == pytest.approx(1.0 - math.pi / 4.0, rel=1e-12)

    def test_scale_enters_linearly(self):
        assert WeibullModel(2.0, 3.0).mean == pytest.approx(3.0 * WeibullModel(2.0, 1.0).mean)

    @pytest.mark.parametrize("shape,scale", [(0.0, 1.0), (-1.0, 1.0), (2.0, 0.0), (2.0, -3.0)])
    def test_rejects_nonpositive_parameters(self, shape, scale):
        with pytest.raises(ValueError):
            WeibullModel(shape, scale)


class TestEmpiricalDemand:
    def test_row_sums_and_means(self):
        d = EmpiricalDemand([[1.0, 2.0], [3.0, 5.0]])
        assert d.n_replicates == 2
        assert d.n_periods == 2
        assert d.row_sums.tolist() == [3.0, 8.0]
        assert d.mean_per_period == pytest.approx(11.0 / 4.0)

    def test_row_sums_computed_once_and_read_only(self, rng):
        d = EmpiricalDemand(rng.gamma(2.0, 1.0, (500, 7)))
        sums = d.row_sums
        assert d.row_sums is sums
        assert np.array_equal(sums, d.samples.sum(axis=1))
        assert not sums.flags.writeable
        with pytest.raises(ValueError):
            sums[0] = 0.0

    def test_caller_array_is_copied_and_stays_writable(self):
        mine = np.array([[1.0, 2.0], [3.0, 5.0]])
        d = EmpiricalDemand(mine)
        assert mine.flags.writeable and not d.samples.flags.writeable
        assert mine.tolist() == [[1.0, 2.0], [3.0, 5.0]]
        mine[0, 0] = 9.0
        assert d.samples[0, 0] == 1.0

    def test_loaded_array_is_frozen_not_copied(self, monkeypatch, tmp_path):
        # the parse was once copied and checked again by __post_init__
        parsed = []
        loadtxt = np.loadtxt

        def kept(*args, **kwargs):
            parsed.append(loadtxt(*args, **kwargs))
            return parsed[-1]

        monkeypatch.setattr(demand.np, "loadtxt", kept)
        path = tmp_path / "d.csv"
        path.write_text("7,2\n3,4.5\n")
        d = load_demand_csv(path)
        assert d.samples is parsed[-1] and not d.samples.flags.writeable
        assert d.samples.tolist() == [[7.0, 2.0], [3.0, 4.5]] and d.row_sums.tolist() == [9.0, 7.5]

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            EmpiricalDemand([[1.0, math.inf]])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            EmpiricalDemand(np.empty((0, 3)))


class TestLeadTime:
    def test_accepts_positive_integers(self):
        assert validate_lead_time(1) == 1
        assert validate_lead_time(50) == 50

    @pytest.mark.parametrize("bad", [0, -3, 2.5, True])
    def test_rejects_invalid(self, bad):
        with pytest.raises((ValueError, TypeError)):
            validate_lead_time(bad)


class TestDelta:
    def test_accepts_the_open_interval(self):
        assert validate_delta(0.05) == 0.05
        assert isinstance(validate_delta(np.float32(0.5)), float)

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.5, 1.5, math.nan])
    def test_rejects_the_rest(self, bad):
        with pytest.raises(ValueError, match="strictly between 0 and 1"):
            validate_delta(bad)


class TestCovarianceFactor:
    def test_reconstructs_covariance(self, rng):
        for _ in range(20):
            q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
            lam = rng.uniform(0.0, 4.0, size=3)
            cov = (q * lam) @ q.T
            cov = 0.5 * (cov + cov.T)
            model = GaussianModel(np.zeros(3), cov)
            factor = covariance_factor(model)
            tol = 1e-10 * max(np.trace(cov), 1.0)
            assert np.abs(factor @ factor.T - cov).max() <= tol
            assert np.allclose(np.triu(factor, 1), 0)

    def test_handles_singular_covariance(self):
        for m in (
            GaussianModel.bivariate(1.0, 1.0, 1.0),
            GaussianModel.bivariate(1.0, 2.0, -1.0),
            GaussianModel(np.zeros(2), np.diag([1.0, 0.0])),
        ):
            factor = covariance_factor(m)
            assert np.abs(factor @ factor.T - m.covariance).max() <= 1e-10
            assert np.allclose(np.triu(factor, 1), 0)

    def test_diagonal_is_nonnegative(self, rng):
        # the QR triangle of diag(1, 0) starts with -1; its column is flipped
        v = rng.standard_normal(3)
        models = [
            GaussianModel.bivariate(1.0, 2.0, 0.6),
            GaussianModel.bivariate(1.0, 2.0, -0.9),
            GaussianModel(np.zeros(3), [[1.0, 0.6, 0.3], [0.6, 1.0, 0.8], [0.3, 0.8, 2.0]]),
            GaussianModel.bivariate(1.0, 1.0, 1.0),
            GaussianModel.bivariate(1.0, 2.0, -1.0),
            GaussianModel(np.zeros(2), np.diag([1.0, 0.0])),
            GaussianModel(np.zeros(2), np.diag([0.0, 1.0])),
            GaussianModel(np.zeros(3), np.outer(v, v)),
        ]
        for m in models:
            factor = covariance_factor(m)
            assert np.all(np.diag(factor) >= 0.0)
            assert np.abs(factor @ factor.T - m.covariance).max() <= 1e-10 * max(np.trace(m.covariance), 1.0)
        assert covariance_factor(models[5])[0, 0] == 1.0

    def test_equals_cholesky_on_positive_definite(self, rng):
        for _ in range(300):
            n = int(rng.integers(1, 5))
            a = rng.standard_normal((n, n))
            cov = a @ a.T + 0.1 * np.eye(n)
            cov = 0.5 * (cov + cov.T)
            chol = np.linalg.cholesky(cov)
            factor = covariance_factor(GaussianModel(np.zeros(n), cov))
            assert np.abs(factor - chol).max() <= 1e-12 * np.abs(chol).max()


def draw_with_factor(model: GaussianModel, count: int, seed: int) -> np.ndarray:
    """``count`` draws of N(mean, covariance) through ``covariance_factor``."""
    noise = np.random.default_rng(seed).standard_normal((count, model.dim))
    return model.mean + noise @ covariance_factor(model).T


class TestSampling:
    def test_sample_mean_near_zero(self):
        samples = draw_with_factor(GaussianModel.univariate(1.0), 1_000_000, seed=42)
        assert abs(float(samples.mean())) < 4.0 / math.sqrt(1_000_000)

    def test_sample_correlation_matches_model(self):
        pairs = draw_with_factor(GaussianModel.bivariate(1.0, 1.0, 0.9), 1_000_000, seed=43)
        corr = float(np.corrcoef(pairs.T)[0, 1])
        assert abs(corr - 0.9) < 0.005

    def test_zero_covariance_returns_mean_exactly(self):
        m = GaussianModel(np.array([3.0, -1.0]), np.zeros((2, 2)))
        out = draw_with_factor(m, 40, seed=7)
        assert np.all(out == np.array([3.0, -1.0]))


class TestCsvIngestion:
    def test_rectangular_file(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1,2\n1,2\n1,2\n")
        d = load_demand_csv(path)
        assert d.n_replicates == 3
        assert d.n_periods == 2

    def test_empty_file(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("")
        with pytest.raises(DemandDataError, match="no demand rows"):
            load_demand_csv(path)

    def test_non_numeric_cell_names_position(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b\n")
        with pytest.raises(DemandDataError, match="row 1, column 1"):
            load_demand_csv(path)

    def test_ragged_rows_name_row(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1,2\n1,2,3\n")
        with pytest.raises(DemandDataError, match="row 2"):
            load_demand_csv(path)

    def test_header_skipped_on_request(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("p1,p2\n1,2\n")
        d = load_demand_csv(path, skip_header=True)
        assert d.n_replicates == 1

    def test_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1,2\n\n3,4\n")
        assert load_demand_csv(path).n_replicates == 2

    def test_whitespace_and_comma_only_lines_ignored(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text('1,2\n   \n,,\n \t , \n"",""\n3,4\n\n')
        assert load_demand_csv(path).samples.tolist() == [[1.0, 2.0], [3.0, 4.0]]

    def test_crlf_quotes_and_surrounding_spaces(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_bytes(b'1,2\r\n"3", 4 \r\n 5 ,"6"\r\n\t-7.5e-1\t," 8 " \r\n')
        got = load_demand_csv(path).samples
        assert got.tolist() == [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0], [-0.75, 8.0]]

    @pytest.mark.parametrize("cell", ["nan", "NaN", "inf", "-inf", "Infinity", "1e400"])
    def test_nonfinite_cell_names_line_and_column(self, tmp_path, cell):
        path = tmp_path / "d.csv"
        path.write_text(f"1,2,3\n4,5,{cell}\n")
        with pytest.raises(DemandDataError, match="row 2, column 3: value is not finite"):
            load_demand_csv(path)

    def test_ragged_row_after_blank_lines_names_file_line(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1,2\n\n  \n,\n1,2\n1,2,3\n")
        with pytest.raises(DemandDataError, match="row 6 has 3 columns, expected 2"):
            load_demand_csv(path)

    def test_non_numeric_cell_after_blank_lines_names_file_line(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text('\n1,2\n""\n\n1, x \n')
        with pytest.raises(DemandDataError, match="row 5, column 2: could not parse 'x'"):
            load_demand_csv(path)

    @pytest.mark.parametrize(
        "text",
        [
            # the first bad line is reported, whatever is wrong further down
            "1,2\n3,inf\n4,y\n5,6,7\n",
            "1,2\n\n1,2,3\n1,x\n",
            "1,2\n1,x\n1,2,3\n",
            "1,2\n1,x,3\n",
            "1,2\n, ,\n-inf,x\n",
            '1,2\n3,4\n"5",  "nan"\n',
            "1;2\n3;4\n",
            "\n\n",
        ],
    )
    def test_errors_match_reference_parser(self, tmp_path, text):
        path = tmp_path / "d.csv"
        path.write_text(text)
        with pytest.raises(DemandDataError) as want:
            load_demand_csv_reference(path)
        with pytest.raises(DemandDataError) as got:
            load_demand_csv(path)
        assert str(got.value) == str(want.value)

    def test_unbalanced_quote_names_line(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text('1,2\n3,"4\n5",6\n')
        with pytest.raises(DemandDataError, match="row 2"):
            load_demand_csv(path)

    def test_skip_header_skips_only_line_one(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1,2\n3,4\n")
        assert load_demand_csv(path, skip_header=True).samples.tolist() == [[3.0, 4.0]]
        # a header below a blank first line is data, and not a number
        path.write_text("\np1,p2\n1,2\n")
        with pytest.raises(DemandDataError, match="row 2, column 1: could not parse 'p1'"):
            load_demand_csv(path, skip_header=True)
        path.write_text("p1,p2\np1,p2\n1,2\n")
        with pytest.raises(DemandDataError, match="row 2, column 1"):
            load_demand_csv(path, skip_header=True)

    @pytest.mark.parametrize("cell", ["1_000", "\u0661\u0662"])
    def test_underscores_and_non_ascii_digits_rejected(self, tmp_path, cell):
        # Python's float reads these; numpy's parser does not
        path = tmp_path / "d.csv"
        path.write_text(f"1,2\n3,{cell}\n", encoding="utf-8")
        with pytest.raises(DemandDataError, match="row 2, column 2: could not parse"):
            load_demand_csv(path)

    def test_full_precision_round_trip_is_bit_identical(self, tmp_path):
        data = np.random.default_rng(7).gamma(2.0, 1.3, (4000, 10))
        data[0, :3] = [5e-324, -0.0, 1.7976931348623157e308]
        path = tmp_path / "d.csv"
        np.savetxt(path, data, delimiter=",", fmt="%.17g")
        got = load_demand_csv(path).samples
        assert got.shape == data.shape
        assert got.tobytes() == data.tobytes()

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_matches_reference_parser_on_well_formed_files(self, tmp_path_factory, data):
        shape = data.draw(st.tuples(st.integers(1, 8), st.integers(1, 5)), label="shape")
        values = data.draw(
            st.lists(
                # bounded, so no rounded spelling overflows to inf
                st.floats(-1e300, 1e300),
                min_size=shape[0] * shape[1],
                max_size=shape[0] * shape[1],
            ),
            label="values",
        )
        spelling = st.sampled_from([repr, "{:.17g}".format, "{:e}".format, "{:.3f}".format, "{:+.5G}".format])
        pad = st.sampled_from(["", " ", "\t", "  "])
        blank = st.sampled_from(["", " ", "\t", ",", " , ,", '""', '"",""'])
        newline = data.draw(st.sampled_from(["\n", "\r\n"]), label="newline")
        header = data.draw(st.booleans(), label="header")
        lines = [",".join(f"p{j}" for j in range(shape[1]))] if header else []
        for r in range(shape[0]):
            lines += data.draw(st.lists(blank, max_size=2), label="blanks")
            cells = []
            for c in range(shape[1]):
                text = data.draw(pad) + data.draw(spelling)(values[r * shape[1] + c]) + data.draw(pad)
                if data.draw(st.booleans()):
                    text = f'"{text}"' + data.draw(pad)
                cells.append(text)
            lines.append(",".join(cells))
        path = tmp_path_factory.mktemp("csv") / "d.csv"
        path.write_bytes((newline.join(lines) + data.draw(st.sampled_from(["", newline]))).encode())
        got = load_demand_csv(path, skip_header=header).samples
        want = load_demand_csv_reference(path, skip_header=header).samples
        assert got.shape == want.shape == shape
        assert got.tobytes() == want.tobytes()


class TestCsvReuse:
    """A load of the bytes last parsed returns that parse; nothing else is kept."""

    @pytest.fixture
    def loadtxt_calls(self, monkeypatch):
        calls = []
        loadtxt = np.loadtxt

        def counted(*args, **kwargs):
            calls.append(args)
            return loadtxt(*args, **kwargs)

        monkeypatch.setattr(demand.np, "loadtxt", counted)
        return calls

    def test_unchanged_bytes_are_not_parsed_again(self, tmp_path, loadtxt_calls):
        path = tmp_path / "d.csv"
        path.write_text("1.25,2\n3,4.5\n")
        first = load_demand_csv(path)
        parsed = len(loadtxt_calls)
        # another name for the same bytes is the same content
        copy = tmp_path / "copy.csv"
        copy.write_bytes(path.read_bytes())
        second = load_demand_csv(copy)
        assert len(loadtxt_calls) == parsed
        assert second is first
        assert second.samples.tolist() == [[1.25, 2.0], [3.0, 4.5]]
        assert not second.samples.flags.writeable
        assert not second.row_sums.flags.writeable

    def test_same_text_in_other_bytes_parses_to_equal_data(self, tmp_path, loadtxt_calls):
        # the key is the file's bytes: CRLF line ends are parsed again, and
        # decode to the same text, so the data are equal
        path = tmp_path / "d.csv"
        path.write_bytes(b"1.25,2\n3,4.5\n")
        first = load_demand_csv(path)
        parsed = len(loadtxt_calls)
        path.write_bytes(b"1.25,2\r\n3,4.5\r\n")
        second = load_demand_csv(path)
        assert len(loadtxt_calls) > parsed
        assert second is not first
        assert second.samples.tolist() == first.samples.tolist() == [[1.25, 2.0], [3.0, 4.5]]

    def test_same_size_rewrite_with_old_time_stamp_is_read(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1,2\n3,4\n")
        assert load_demand_csv(path).samples.tolist() == [[1.0, 2.0], [3.0, 4.0]]
        stamp = path.stat()
        path.write_text("5,6\n7,8\n")
        os.utime(path, ns=(stamp.st_atime_ns, stamp.st_mtime_ns))
        assert path.stat().st_size == stamp.st_size
        assert path.stat().st_mtime_ns == stamp.st_mtime_ns
        assert load_demand_csv(path).samples.tolist() == [[5.0, 6.0], [7.0, 8.0]]

    def test_header_flag_is_part_of_the_key(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("10,20\n30,40\n")
        assert load_demand_csv(path).n_replicates == 2
        assert load_demand_csv(path, skip_header=True).samples.tolist() == [[30.0, 40.0]]
        assert load_demand_csv(path).n_replicates == 2

    def test_errors_are_raised_on_every_load(self, tmp_path, loadtxt_calls):
        path = tmp_path / "d.csv"
        path.write_text("1,2\n3,4\n")
        load_demand_csv(path)
        path.write_text("1,2\n3,x\n")
        messages = []
        for _ in range(2):
            before = len(loadtxt_calls)
            with pytest.raises(DemandDataError) as err:
                load_demand_csv(path)
            assert len(loadtxt_calls) > before
            messages.append(str(err.value))
        assert messages == [f"{path}: row 2, column 2: could not parse 'x' as a number"] * 2
        # the good bytes were still the last parse
        path.write_text("1,2\n3,4\n")
        before = len(loadtxt_calls)
        assert load_demand_csv(path).samples.tolist() == [[1.0, 2.0], [3.0, 4.0]]
        assert len(loadtxt_calls) == before


class TestModelFromDict:
    def test_gaussian(self):
        m = model_from_dict({"type": "gaussian", "mu": [0.0, 0.0], "sigma": [[1.0, 0.9], [0.9, 1.0]]})
        assert isinstance(m, GaussianModel)
        assert m.correlation == pytest.approx(0.9)

    def test_weibull(self):
        m = model_from_dict({"type": "weibull", "shape": 2, "scale": 1})
        assert isinstance(m, WeibullModel)

    def test_empirical_resolves_relative_path(self, tmp_path):
        (tmp_path / "d.csv").write_text("1,2\n3,4\n")
        m = model_from_dict({"type": "empirical", "path": "d.csv"}, base_dir=tmp_path)
        assert isinstance(m, EmpiricalDemand)
        assert m.n_periods == 2

    def test_unknown_type(self):
        with pytest.raises(ValueError, match="unknown model type"):
            model_from_dict({"type": "poisson"})

    def test_missing_field(self):
        with pytest.raises(ValueError, match="missing"):
            model_from_dict({"type": "gaussian", "mu": [0.0]})

    @pytest.mark.parametrize(
        "spec, key",
        [
            ({"type": "weibull", "shape": 2, "scale": 1, "mean": 3}, "mean"),
            ({"type": "gaussian", "mu": [0.0, 0.0], "sigma": [[1, 0], [0, 1]], "rho": 0.5}, "rho"),
            ({"type": "empirical", "path": "d.csv", "skip_headers": True}, "skip_headers"),
            ({"type": "gaussian", "mu": [0.0], "sigma": [[1.0]], "shape": 2, "scale": 1}, "shape"),
        ],
    )
    def test_unknown_key_is_named(self, spec, key):
        # the key is read before any file, so the missing d.csv is not reached
        with pytest.raises(ValueError, match=f"{spec['type']} config has unknown key '{key}'"):
            model_from_dict(spec)

    def test_unhashable_type_is_unknown(self):
        with pytest.raises(ValueError, match="unknown model type"):
            model_from_dict({"type": ["gaussian"]})
