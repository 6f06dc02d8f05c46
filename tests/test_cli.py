import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from functools import cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import ghz_selftest
from ghz_selftest import arraytext, cli, linalg, robustness
from ghz_selftest.cli import (
    MAX_N,
    build_parser,
    canonical_json,
    load_strategy,
    main,
    parse_args,
    run,
    save_strategy,
    strategy_from_dict,
    strategy_to_dict,
)
from ghz_selftest.errors import InvalidInput
from ghz_selftest.fixtures import depolarized_partial_bell, ideal_strategy, partial_bell_strategy
from ghz_selftest.robustness import analytic_params
from ghz_selftest.scenario import a_operators, success_metric
from ghz_selftest.selftest import DEFAULT_TOLERANCES, witness_bounds
from ghz_selftest.states import (
    Povm,
    SenderStates,
    Strategy,
    random_antipodal_strategy,
    random_mixed_strategy,
    random_strategy,
)

# finite float64 arrays of 0-3 dimensions, empty ones included: the bulk writer's path
FLOAT_ARRAYS = hnp.arrays(
    np.float64, hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4),
    elements=st.floats(allow_nan=False, allow_infinity=False),
)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8)
    | FLOAT_ARRAYS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=20,
)


# every subcommand's option strings: a flag is added or removed on purpose only
COMMAND_FLAGS = {
    "certify": {"--n", "--output", "-o", "--input", "--fixture", "--noise"},
    "spectrum": {"--n", "--output", "-o", "--s"},
    "sos": {"--seed", "--n", "--output", "-o", "--samples"},
    "seesaw": {"--seed", "--n", "--output", "-o", "--metric", "--restarts", "--max-iters",
               "--conv-tol", "--history-csv", "--save-strategy"},
    "counterexample": {"--output", "-o"},
    "robustness-grid": {"--n", "--output", "-o", "--step", "--r", "--mu", "--csv"},
    "fidelity-bound": {"--n", "--output", "-o", "--eps", "--r", "--mu"},
    "partial-bell": {"--output", "-o", "--input", "--noise"},
    "rac": {"--output", "-o", "--alpha"},
}


def _subparsers() -> dict:
    return next(a for a in build_parser()._actions
                if isinstance(a, argparse._SubParsersAction)).choices


class TestParsing:
    def test_each_command_takes_exactly_its_flags(self):
        got = {name: {s for a in p._actions if not isinstance(a, argparse._HelpAction)
                      for s in a.option_strings}
               for name, p in _subparsers().items()}
        assert got == COMMAND_FLAGS

    @pytest.mark.parametrize("argv", [
        ["certify", "--seed", "1"],
        ["spectrum", "--seed", "1"],
        ["robustness-grid", "--seed", "1"],
        ["fidelity-bound", "--eps", "0.1", "--seed", "1"],
        ["partial-bell", "--seed", "1"],
        ["rac", "--seed", "1"],
        ["counterexample", "--seed", "1"],
        ["counterexample", "--n", "2"],
        ["partial-bell", "--n", "2"],
        ["rac", "--n", "2"],
        ["robustness-grid", "--no-refine"],
    ], ids=" ".join)
    def test_flag_the_command_does_not_read_is_rejected(self, tmp_path, capsys, argv):
        out = tmp_path / "r.json"
        with pytest.raises(SystemExit) as exc:
            main(argv + ["-o", str(out)])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not out.exists()

    def test_readme_synopsis_lists_each_command_flags(self):
        text = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        synopsis = {}
        for line in text.split("## CLI", 1)[1].split("```")[1].strip().splitlines():
            if line.startswith("ghz-selftest "):  # else a continuation line
                flags = synopsis.setdefault(line.split()[1], set())
            flags |= set(re.findall(r"(?<![\w-])--?[a-z][\w-]*", line))
        assert synopsis == COMMAND_FLAGS

    def test_commands_without_the_flags_report_the_defaults(self):
        cfg = parse_args(["rac"])
        assert (cfg.n, cfg.seed) == (2, 0)
        assert "n" not in cfg.options and "seed" not in cfg.options

    def test_seesaw_flags(self):
        cfg = parse_args(["seesaw", "--metric", "counterexample", "--restarts", "50"])
        assert cfg.command == "seesaw"
        assert cfg.options["metric"] == "counterexample"
        assert cfg.options["restarts"] == 50
        assert cfg.seed == 0

    @pytest.mark.parametrize("command, n", [("spectrum", "9"), ("certify", "8"),
                                            ("sos", "8"), ("seesaw", "8")],
                             ids=["spectrum", "certify", "sos", "seesaw"])
    def test_spectrum_rejects_large_n(self, capsys, command, n):
        with pytest.raises(SystemExit) as exc:
            parse_args([command, "--n", n])
        assert exc.value.code == 2
        assert "(n <= 7)" in capsys.readouterr().err

    def test_certify_input_path(self):
        cfg = parse_args(["certify", "--input", "strategy.json"])
        assert cfg.input_path == "strategy.json"

    def test_unknown_flag_rejected(self):
        with pytest.raises(SystemExit) as exc:
            parse_args(["certify", "--bogus", "1"])
        assert exc.value.code == 2

    def test_tolerance_overrides(self):
        cfg = parse_args(["certify", "--tol.metric=1e-4", "--tol.spectrum=1e-7"])
        assert cfg.tolerances == {"metric": 1e-4, "spectrum": 1e-7}

    def test_unknown_tolerance_rejected(self):
        with pytest.raises(SystemExit) as exc:
            parse_args(["certify", "--tol.bogus=1"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("command", ["certify", "spectrum", "sos"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
    def test_bad_tolerance_value_rejected(self, tmp_path, capsys, command, value):
        out = tmp_path / "r.json"
        with pytest.raises(SystemExit) as exc:
            main([command, "--n", "3", f"--tol.spectrum={value}", "-o", str(out)])
        assert exc.value.code == 2
        assert "tolerance spectrum must be finite and >= 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["seesaw", "--n", "2", "--restarts", "1"],
        ["counterexample"],
        ["robustness-grid", "--step", "0.5"],
        ["fidelity-bound", "--eps", "0.1"],
        ["partial-bell"],
        ["rac"],
    ], ids=lambda argv: argv[0])
    def test_tolerance_on_a_command_without_tolerances_rejected(self, tmp_path, capsys, argv):
        out = tmp_path / "r.json"
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--tol.metric=1", "-o", str(out)])
        assert exc.value.code == 2
        assert f"{argv[0]} applies no tolerance" in capsys.readouterr().err
        assert not out.exists()

    def test_infinite_tolerances_cannot_pass_a_non_ghz_measurement(self, tmp_path):
        out = tmp_path / "r.json"
        with pytest.raises(SystemExit) as exc:
            main(["certify", "--fixture", "computational", "--n", "3", "--tol.metric=inf",
                  "--tol.ghz_fidelity=inf", "-o", str(out)])
        assert exc.value.code == 2
        assert not out.exists()


def _help_texts(parser) -> dict:
    """The --help text of the main parser and of every subcommand."""
    subs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {"": parser.format_help(),
            **{name: p.format_help() for name, p in subs.choices.items()}}


def _fresh_parse(argv):
    cli._parser.cache_clear()
    return parse_args(argv)


class TestParserReuse:
    def test_parse_args_shares_one_parser_and_build_parser_stays_fresh(self, monkeypatch):
        built = []

        def counted():
            built.append(build_parser())
            return built[-1]

        monkeypatch.setattr(cli, "build_parser", counted)
        cli._parser.cache_clear()
        parse_args(["certify"])
        parse_args(["rac"])
        assert len(built) == 1
        assert cli._parser() is built[0]
        assert build_parser() is not build_parser()
        cli._parser.cache_clear()

    @pytest.mark.parametrize("first, second, want", [
        (["certify", "--fixture", "depolarized", "--noise", "0.1"], ["certify"],
         {"n": 2, "input_path": None,
          "options": {"fixture": "ideal", "noise": 0.0}}),
        (["seesaw", "--restarts", "5"], ["seesaw"], {"options.restarts": 50}),
        (["certify", "--input", "F"], ["certify", "--fixture", "ideal"],
         {"input_path": None, "n": 2}),
    ], ids=["certify-noise", "seesaw-restarts", "certify-input"])
    def test_defaults_do_not_leak_between_calls(self, first, second, want):
        parse_args(first)
        cfg = parse_args(second)
        for key, value in want.items():
            if key.startswith("options."):
                assert cfg.options[key.split(".", 1)[1]] == value
            else:
                assert getattr(cfg, key) == value
        assert cfg == _fresh_parse(second)

    def test_refused_argv_leaves_the_parser_as_it_was(self, capsys):
        with pytest.raises(SystemExit) as exc:
            parse_args(["certify", "--noise", "0.1"])
        assert exc.value.code == 2
        assert "--noise applies to --fixture depolarized only" in capsys.readouterr().err
        argv = ["certify", "--fixture", "depolarized", "--n", "3"]
        assert parse_args(argv) == _fresh_parse(argv)

    def test_help_matches_a_fresh_parser(self):
        for argv in (["certify", "--input", "F"], ["seesaw", "--restarts", "5"],
                     ["robustness-grid", "--n", "3"], ["rac"]):
            parse_args(argv)
        assert _help_texts(cli._parser()) == _help_texts(build_parser())

    def test_at_most_one_parser_per_process(self, monkeypatch):
        constructed = []
        init = argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            constructed.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        cli._parser.cache_clear()
        for k in range(20):
            parse_args(["certify", "--n", str(2 + k % 3)] if k % 2 else ["rac"])
        # the main parser and its 9 subcommand parsers
        assert 0 < len(constructed) <= 10


class TestCanonicalJson:
    def test_sorted_keys_and_float_format(self):
        text = canonical_json({"b": 0.1, "a": [1, True, None]})
        assert text == '{"a":[1,true,null],"b":0.10000000000000001}'

    @pytest.mark.parametrize("value, scalar", [
        (np.array(np.nan), math.nan), (np.array(-np.inf), -math.inf), (np.array(0.25), 0.25),
        (np.array(-0.0), 0.0), (np.array(3), 3), (np.array(True), True), (np.array(1j), None),
    ])
    def test_zero_dimensional_array_is_its_scalar(self, value, scalar):
        if scalar is None:
            with pytest.raises(InvalidInput, match="complex"):
                canonical_json({"x": value})
        else:
            assert canonical_json({"x": value}) == canonical_json({"x": scalar})

    def test_roundtrip_is_identity_on_canonical_files(self, tmp_path):
        path = tmp_path / "strategy.json"
        save_strategy(ideal_strategy(2), str(path))
        first = path.read_bytes()
        loaded = load_strategy(str(path))
        save_strategy(loaded, str(path))
        assert path.read_bytes() == first

    def test_strategy_dict_roundtrip(self):
        s = partial_bell_strategy()
        d = strategy_to_dict(s)
        back = strategy_from_dict(d)
        assert back.task == "partial_bell"
        assert np.abs(back.povm.elements - s.povm.elements).max() == 0
        assert np.abs(back.observables - s.observables).max() == 0

    @given(n=st.integers(2, 4), seed=st.integers(0, 2**32 - 1), mixed=st.booleans())
    def test_strategy_dict_roundtrip_keeps_every_array(self, n, seed, mixed):
        s = (random_mixed_strategy if mixed else random_strategy)(n, seed)
        back = strategy_from_dict(strategy_to_dict(s))
        assert (back.n, back.task) == (n, "ghz")
        assert np.array_equal(back.povm.elements, s.povm.elements)
        for got, want in zip(back.senders, s.senders, strict=True):
            assert np.array_equal(got.rho, want.rho)

    @given(JSON_VALUES)
    def test_canonical_json_is_byte_stable(self, value):
        first = canonical_json(value)
        assert canonical_json(json.loads(first)) == first

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_bulk_strategy_file_matches_element_serialization(self, tmp_path, n):
        path = tmp_path / "s.json"
        strategies = [random_strategy(n, 5), random_mixed_strategy(n, 6)]
        if n == 2:
            strategies += [partial_bell_strategy(), depolarized_partial_bell(0.1)]
        for s in strategies:
            save_strategy(s, str(path))
            assert path.read_text(encoding="utf-8") == canonical_json(strategy_to_dict(s))

    def test_bulk_strategy_file_normalizes_negative_zero(self, tmp_path):
        s = ideal_strategy(2)
        rho = s.senders[0].rho.copy()
        rho.imag[...] = -0.0
        els = s.povm.elements.copy()
        els[1, 2, 3] = complex(-0.0, -0.0)
        s = Strategy(n=2, senders=(SenderStates(rho), s.senders[1]), povm=Povm(els))
        path = tmp_path / "s.json"
        save_strategy(s, str(path))
        text = path.read_text(encoding="utf-8")
        assert text == canonical_json(strategy_to_dict(s))
        assert "-0," not in text and "-0]" not in text

    def test_loaded_strategy_evaluates_identically(self, tmp_path):
        path = tmp_path / "s.json"
        s = ideal_strategy(3)
        save_strategy(s, str(path))
        assert abs(success_metric(load_strategy(str(path))) - 1) < 1e-10

    @pytest.mark.parametrize("seed", [3, 11])
    def test_strategy_file_roundtrips_bit_for_bit(self, tmp_path, seed):
        path = tmp_path / "s.json"
        s = random_antipodal_strategy(6, seed)
        save_strategy(s, str(path))
        back = load_strategy(str(path))
        assert (back.n, back.task, back.observables) == (6, "ghz", None)
        assert back.povm.elements.tobytes() == s.povm.elements.tobytes()
        for got, want in zip(back.senders, s.senders, strict=True):
            assert got.rho.tobytes() == want.rho.tobytes()


def element_text(a) -> str:
    """The per-element ``%.17g`` text of a float array: its ``tolist()``
    through the scalar path of ``canonical_json``."""
    return canonical_json(np.asarray(a).tolist())


def tie_values(rng) -> np.ndarray:
    """Doubles ``m / 2**k`` with odd ``m``. Where ``m 5**k`` has 18 digits
    (k = 2..25), the exact expansion ends in a 5 at the 18th significant
    digit: a tie at the 17th. Above k = 25 no such ``m`` is a double, and odd
    ``m`` near ``2**53`` give the longest exact expansions instead."""
    out = []
    for k in range(2, 41):
        lo, hi = -(-(10**17) // 5**k), min(10**18 // 5**k, 2**53)
        if lo >= hi:
            lo, hi = 2**52, 2**53
        m = rng.integers(lo, hi, 60, dtype=np.int64) | 1
        out.append(m[m < hi] / 2.0**k)
    return np.concatenate(out)


# SHA-256 of the strategy files and the spectrum report written by the
# per-element %.17g writer, which the bulk writer must reproduce byte for byte
WRITER_SHA256 = {
    "ideal-2": "982091eed7372deb7ef07baf07611b17394f6ebb8beef42f44ec010061f3a132",
    "ideal-3": "31178499072afdacf2a5256d46a232c0e5893f3458638232d485aaf4582607e7",
    "ideal-4": "c5c5b117f9d6266948fffffeafd8b94e291bc4e3c0d3be4c9468ec32cd675599",
    "ideal-5": "05c0e8c4f6023dacfc2d0c9d4b0f4f89edf2613b872af1d0e353cfeb1b4468f4",
    "literal-2": "b12654091eb1894c35b35df7007deb6c55bdf82b2142f80e25895512d0b2c47c",
    "literal-3": "ec2e0201c3f2677e0f84a32ea24ec20597234ea30d56129226f51135e40868d3",
    "literal-4": "5a576abed18d7323ee580c0f4bc33eb3be6f601f50432c9565b3e8a93fa756ab",
    "literal-5": "1eddf4e1fe20e2afa3c4277baebdf55a44652e661b7f03bd0a5714ebe3f91864",
    "depolarized-2": "024daf6963850df9322923ba38c057ac781ae9bbb8a3067088629eebaaa83699",
    "depolarized-3": "fe90331d24c2ff166787b9e99304ea90d2cc4b93b36835120010c51509748a1f",
    "depolarized-4": "9dd8c0788a40e736b574ad07271d6c89aee926147784caf60222b3489a669df8",
    "depolarized-5": "d4fe2010ece04e84da3a67418e372f803942291179cb313ffd7410cca1f0be72",
    "partial-bell": "4b299f75b3906d1a94903b5d34790d63ebd051f2c07f15013275a6e203624eea",
    "antipodal-2": "39abd7ef7e1afec07536a0ea467a4f1035fe0d92eeea6f4b9ff87a4a06a63f87",
    "antipodal-3": "ee026566f7270e5bd86907369652baacf96ece5a753051b246b78a472ff4d656",
    "antipodal-4": "f655699cf07175bfb88b272df3d019d6b890d610f38b50077969ae31075b7978",
    "antipodal-5": "ed103d485f3ad076e2bd02c8126076389d73d2724e93a60286d43cf105086369",
    "antipodal-6": "052c28979d9b53866eaf41ed993a12767f279f2596540e0179fa8a53a1940f42",
    # `spectrum --n 7`: 128 arrays of 128 eigenvalues (the report names the version)
    "spectrum-7": "a72295eb39282f1b410094d8cad730a63d0197955d4fee9eaadeed04a1d3f988",
}


def writer_case(name: str):
    kind, _, n = name.rpartition("-")
    if kind == "antipodal":
        return random_antipodal_strategy(int(n), 7)
    if name == "partial-bell":
        return partial_bell_strategy()
    return cli.GHZ_FIXTURES[kind](int(n), 0.05)


class TestFloatWriter:
    """The bulk float writer equals the per-element ``%.17g`` path byte for
    byte, on every range of doubles and every array layout."""

    def test_random_bit_patterns(self):
        rng = np.random.default_rng(20261019)
        x = rng.integers(0, 2**64, 110_000, dtype=np.uint64).view(np.float64)
        x = x[np.isfinite(x)]
        assert x.size >= 100_000
        assert canonical_json(x) == element_text(x)

    def test_magnitudes_of_the_exact_range(self):
        # 1e-13 .. 1e17 with both signs: mostly the integer path, and both
        # of its edges
        rng = np.random.default_rng(7)
        x = rng.random(100_000) * 10.0 ** rng.integers(-13, 18, 100_000)
        x *= rng.choice([-1.0, 1.0], x.size)
        assert canonical_json(x) == element_text(x)

    def test_zeros_subnormals_and_the_smallest_normal(self):
        rng = np.random.default_rng(3)
        tiny = np.finfo(float).tiny
        sub = rng.integers(1, 2**52, 1000, dtype=np.uint64).view(np.float64)
        x = np.concatenate([[0.0, -0.0, 5e-324, -5e-324, tiny, -tiny,
                             np.nextafter(tiny, 0), np.nextafter(tiny, 1),
                             np.nextafter(-tiny, 0), np.nextafter(-tiny, -1)], sub, -sub])
        text = canonical_json(x)
        assert text == element_text(x)
        assert text.startswith("[0,0,4.9406564584124654e-324,")

    def test_near_the_largest_double(self):
        big = np.finfo(float).max  # 1.7976931348623157e308
        x = np.array([big, -big, np.nextafter(big, 0), np.nextafter(-big, 0),
                      1.5e308, -1e308, 8.98846567431158e307])
        assert canonical_json(x) == element_text(x)

    def test_exact_ties_round_half_to_even(self):
        x = tie_values(np.random.default_rng(11))
        ties = x[(np.abs(x) > 1e-11) & (np.abs(x) < 4e15)]
        assert ties.size > 1000
        assert canonical_json(x) == element_text(x)

    def test_neighbours_of_powers_of_ten(self):
        p = 10.0 ** np.arange(-25, 26)
        x = np.concatenate([p, np.nextafter(p, 0), np.nextafter(p, np.inf)])
        x = np.concatenate([x, -x])
        assert canonical_json(x) == element_text(x)
        # the double nearest 1e-7 lies below it, yet its log10 is exactly -7:
        # rounded before the range check, its digits would read 1e-07
        assert canonical_json(np.array([1e-7])) == "[9.9999999999999995e-08]"

    @pytest.mark.parametrize("shape, text", [((0,), "[]"), ((2, 0, 3), "[[],[]]")])
    def test_zero_size_shapes(self, shape, text):
        assert canonical_json(np.zeros(shape)) == text == element_text(np.zeros(shape))

    def test_transposed_and_float32_arrays(self):
        rng = np.random.default_rng(5)
        t = rng.standard_normal((5, 7)).T
        assert not t.flags["C_CONTIGUOUS"]
        f = (rng.standard_normal((3, 4, 2)) * 1e3).astype(np.float32)
        for a in (t, f, np.array(0.25), np.array(-0.0)):
            assert canonical_json(a) == (element_text(a) if a.ndim else
                                         canonical_json(float(a)))

    @pytest.mark.parametrize("block", [linalg.BLOCK_ENTRIES, 32 * 64 * 15, 1])
    def test_document_of_many_arrays_at_any_slice_size(self, monkeypatch, block):
        # slices of 8192, 960 and 64 numbers: arrays start and end inside slices
        monkeypatch.setattr(linalg, "BLOCK_ENTRIES", block)
        rng = np.random.default_rng(9)
        doc = {"a": [rng.standard_normal((3, 11)) for _ in range(40)],
               "b": rng.standard_normal((2, 1500, 2)), "c": np.array(1.5), "d": 2.0,
               "e": {"f": np.zeros((1, 4)), "g": np.array([[np.nan, 1.0]])}}
        plain = json.loads(json.dumps(doc, default=lambda a: a.tolist()))
        assert canonical_json(doc) == canonical_json(plain)

    @pytest.mark.parametrize("name", sorted(WRITER_SHA256))
    def test_bytes_are_the_element_writers(self, tmp_path, name):
        path = tmp_path / "out.json"
        if name == "spectrum-7":
            assert run(parse_args(["spectrum", "--n", "7", "-o", str(path)])) == 0
        else:
            save_strategy(writer_case(name), str(path))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == WRITER_SHA256[name]

    @pytest.mark.parametrize("n", [5, 6])
    def test_save_peak_memory_is_about_the_file(self, tmp_path, n):
        # the parts are written in turn: no joined or encoded copy of the text
        strategy = random_antipodal_strategy(n, 7)
        path = tmp_path / "s.json"
        tracemalloc.start()
        try:
            save_strategy(strategy, str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * path.stat().st_size + 2e6


class TestLoadStrategyGc:
    """The caller's cyclic collector setting survives a return and a raise."""

    @pytest.fixture
    def caller_gc(self):
        enabled = gc.isenabled()
        yield
        if enabled:
            gc.enable()
        else:
            gc.disable()

    @pytest.mark.parametrize("caller_enabled", [True, False])
    @pytest.mark.parametrize("content", ["valid", "{not json"])
    def test_caller_setting_is_restored(self, tmp_path, caller_gc, caller_enabled, content):
        path = tmp_path / "s.json"
        if content == "valid":
            save_strategy(ideal_strategy(2), str(path))
        else:
            path.write_text(content)
        (gc.enable if caller_enabled else gc.disable)()
        if content == "valid":
            load_strategy(str(path))
        else:
            with pytest.raises(json.JSONDecodeError):
                load_strategy(str(path))
        assert gc.isenabled() is caller_enabled

    def test_restored_after_an_input_error(self, tmp_path, caller_gc):
        path = tmp_path / "s.json"
        path.write_bytes(b"\xff\xfe{}")
        gc.enable()
        with pytest.raises(InvalidInput):
            load_strategy(str(path))
        assert gc.isenabled()


def reference_load(path) -> Strategy:
    """The strategy-file loader that the flat reader replaced, kept as its
    reference: ``json`` parses the text into nested lists, which
    ``strategy_from_dict`` reads."""
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except UnicodeDecodeError as exc:
            raise InvalidInput(f"strategy file is not UTF-8 text: {exc}") from exc
        except RecursionError as exc:
            raise InvalidInput("strategy file nests too deeply to parse") from exc
    return strategy_from_dict(data)


def strategy_bytes(s: Strategy) -> tuple:
    """Everything a loaded strategy holds, bit for bit."""
    return (s.n, s.task, s.povm.elements.tobytes(), [st.rho.tobytes() for st in s.senders],
            None if s.observables is None else s.observables.tobytes())


def record_parses(monkeypatch) -> list:
    """Patch ``json.loads`` to note each parse as ``(length, nested)``: the
    length of the text it parses, and whether it builds a list holding a
    list, as parsing a number array as nested lists does."""
    parses, parse = [], json.loads

    def holds_nested_list(value) -> bool:
        if isinstance(value, dict):
            return any(map(holds_nested_list, value.values()))
        kinds = set(map(type, value)) if isinstance(value, list) else ()
        return list in kinds or dict in kinds and any(map(holds_nested_list, value))

    def recording(*args, **kwargs):
        value = parse(*args, **kwargs)
        parses.append((len(args[0]), holds_nested_list(value)))
        return value

    monkeypatch.setattr(json, "loads", recording)
    return parses


# the strategies whose files the flat reader must read as the reference does
READER_CASES = {
    **{f"{name}-{n}": (lambda name=name, n=n: cli.GHZ_FIXTURES[name](n, 0.05))
       for name in sorted(cli.GHZ_FIXTURES) for n in range(2, 7)},
    "antipodal-5": lambda: random_antipodal_strategy(5, 3),
    "mixed-3": lambda: random_mixed_strategy(3, 4),
    "partial-bell": partial_bell_strategy,
}


def reader_text(name: str, layout: str) -> str:
    """A strategy file as ``save_strategy`` writes it, re-dumped with
    ``json.dumps(indent=1)``, or that with CRLF line ends."""
    text = canonical_json(strategy_to_dict(READER_CASES[name](), arrays=True))
    if layout != "saved":
        text = json.dumps(json.loads(text), indent=1)
    return text.replace("\n", "\r\n") if layout == "crlf" else text


class TestFlatReader:
    """``load_strategy`` reads each number array as flat lists, one slice at
    a time, and reads every file as the nested-list loader does."""

    # an n = 6 re-dump takes seconds; n = 2..5 cover the layouts. Slices of
    # 1, 7 and 97 bytes cut every array of the n <= 3 files many times
    @pytest.mark.parametrize("name, layout, block", [
        (name, layout, block) for name in sorted(READER_CASES)
        for layout in ("saved", "indent", "crlf") for block in (linalg.BLOCK_ENTRIES, 1, 7, 97)
        if (layout == "saved" or not name.endswith("-6"))
        and (block == linalg.BLOCK_ENTRIES or name[-1] not in "456")])
    def test_arrays_are_the_reference_loaders_bit_for_bit(self, tmp_path, monkeypatch,
                                                          name, layout, block):
        path = tmp_path / "s.json"
        path.write_bytes(reader_text(name, layout).encode("utf-8"))
        want = strategy_bytes(reference_load(path))
        monkeypatch.setattr(linalg, "BLOCK_ENTRIES", block)
        parses = record_parses(monkeypatch)
        assert strategy_bytes(load_strategy(str(path))) == want
        assert parses and not any(nested for _, nested in parses)

    def test_antipodal_povm_is_not_parsed_as_nested_lists(self, tmp_path, monkeypatch):
        path = tmp_path / "s.json"
        save_strategy(random_antipodal_strategy(5, 1), str(path))
        parses = record_parses(monkeypatch)
        load_strategy(str(path))
        assert parses and not any(nested for _, nested in parses)

    def test_no_parse_is_longer_than_a_slice_and_a_number(self, tmp_path, monkeypatch):
        # a slice runs on from its budget to the next comma: through the rest
        # of a number and its closing brackets, and two brackets wrap it
        path = tmp_path / "s.json"
        save_strategy(random_antipodal_strategy(5, 7), str(path))
        token = max(map(len, NUMBER_TOKEN.findall(path.read_bytes())))
        parses = record_parses(monkeypatch)
        load_strategy(str(path))
        assert len(parses) > 2 and max(length for length, _ in parses) <= (
            linalg.BLOCK_ENTRIES + token + 8)

    def test_load_peak_memory_is_about_the_file(self, tmp_path):
        # the file's bytes, the arrays and one slice of text at a time
        path = tmp_path / "s.json"
        save_strategy(random_antipodal_strategy(5, 7), str(path))
        tracemalloc.start()
        try:
            load_strategy(str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * path.stat().st_size

    # arrays whose bytes every slice size cuts somewhere else, and the pattern they fit
    @pytest.mark.parametrize("text, pattern", [
        (b"[1,2,3,4,5,6]", (None,)),  # integers: int64
        (b"[1,2.5,3,4,-0.0,6]", (None,)),  # integers and floats: float64
        (b"[[0,1],[2.5,3]]", (2, 2)),
        (b"[9223372036854775807,9223372036854775808,18446744073709551615]", (None,)),
        (b"[9223372036854775808,18446744073709551615]", (None,)),  # uint64
        (b"[9223372036854775808,-1,2]", (None,)),  # uint64 and a negative: float64
        (b"[-9223372036854775808,9223372036854775807,0]", (None,)),
        (b"[18446744073709551616,1.5,2]", (None,)),  # an object array: a list
        (b"[1,-9223372036854775809,3]", (None,)),
        (b"[1e5,2E-3,-3e+2,4,1e400]", (None,)),
        (b"[1,\r\n2,\r\n 3.5,\r\n4]", (None,)),
        (b"[[1,2],\r\n [3,4]]", (2, None)),
        (b"[1,,2,3]", (None,)),
        (b"[1,2,3,]", (None,)),
        (b"[[1,2],[3,4],]", (None, 2)),
    ])
    def test_every_cut_reads_as_the_whole_list(self, monkeypatch, text, pattern):
        doc = b'{"a": %s, "b": 1}' % text
        try:
            value = json.loads(doc.decode())
        except json.JSONDecodeError as exc:
            want = ("raises", str(exc), exc.pos)
        else:
            array = np.asarray(value["a"])
            want = (array.dtype, array.shape, array.tobytes()) if array.dtype.kind in "iuf" \
                else ("list", value["a"])
        for block in range(1, len(text) + 1):
            monkeypatch.setattr(linalg, "BLOCK_ENTRIES", block)
            try:
                got = arraytext.loads(doc, {"a": pattern})["a"]
            except json.JSONDecodeError as exc:
                assert want == ("raises", str(exc), exc.pos), block
                continue
            assert want == ((got.dtype, got.shape, got.tobytes()) if isinstance(got, np.ndarray)
                            else ("list", got)), block

    @pytest.mark.parametrize("command", ["certify", "partial-bell"])
    def test_placeholder_text_in_the_file_is_a_plain_string(self, tmp_path, command):
        # the string that stands in for the first flattened array
        data = strategy_to_dict(ideal_strategy(2))
        data["task"] = "\x000"
        path = tmp_path / "s.json"
        path.write_text(json.dumps(data))
        outcome = cli_outcome(command, path, tmp_path)
        assert outcome == cli_outcome(command, path, tmp_path, reference_load)
        assert "unknown task '\\x000'" in outcome[1]


def cli_outcome(command, path, workdir, loader=None) -> tuple:
    """Exit code, standard error and report bytes of ``COMMAND --input
    PATH``, with ``loader`` in place of ``load_strategy`` if given."""
    out = Path(workdir) / "r.json"
    out.unlink(missing_ok=True)
    err = io.StringIO()
    saved = cli.load_strategy
    cli.load_strategy = loader or saved
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = run(parse_args([command, "--input", str(path), "-o", str(out)]))
    finally:
        cli.load_strategy = saved
    return code, err.getvalue(), out.read_bytes() if out.exists() else None


class TestRun:
    def test_certify_ideal_passes(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        code = run(parse_args(["certify", "--n", "2", "-o", str(out)]))
        assert code == 0
        report = json.loads(out.read_text())
        assert report["passed"] is True
        assert abs(report["results"]["metric_value"] - 1) < 1e-10
        assert all(abs(f - 1) < 1e-10 for f in report["results"]["ghz_fidelities"])
        assert "PASS" in capsys.readouterr().out

    def test_certify_computational_fails(self, tmp_path):
        out = tmp_path / "r.json"
        code = run(parse_args(["certify", "--fixture", "computational", "-o", str(out)]))
        assert code == 1
        report = json.loads(out.read_text())
        assert all(abs(f - 0.5) < 1e-10 for f in report["results"]["ghz_fidelities"])

    def test_certify_strategy_file(self, tmp_path):
        strat = tmp_path / "s.json"
        out = tmp_path / "r.json"
        save_strategy(ideal_strategy(2), str(strat))
        code = run(parse_args(["certify", "--input", str(strat), "-o", str(out)]))
        assert code == 0

    def test_certify_strategy_file_hermitian_within_state_atol(self, tmp_path):
        # sender 2's rho[0, 0] carries 4.5e-11 i I: the file validates, so
        # certify writes a report and exits 0 or 1, never 2
        base = ideal_strategy(3)
        rho = base.senders[1].rho.copy()
        rho[0, 0] += 4.5e-11j * np.eye(2)
        senders = (base.senders[0], SenderStates(rho), base.senders[2])
        strat = tmp_path / "s.json"
        out = tmp_path / "r.json"
        save_strategy(Strategy(n=3, senders=senders, povm=base.povm), str(strat))
        assert run(parse_args(["certify", "--input", str(strat), "-o", str(out)])) in (0, 1)
        report = json.loads(out.read_text())
        assert report["results"]["alignment_error"] is not None
        assert report["results"]["sos_residual"] is not None

    def test_certify_strategy_file_reports_its_n(self, tmp_path):
        strat = tmp_path / "s.json"
        out = tmp_path / "r.json"
        save_strategy(ideal_strategy(3), str(strat))
        assert run(parse_args(["certify", "--input", str(strat), "-o", str(out)])) == 0
        report = json.loads(out.read_text())
        assert report["config"]["n"] == 3
        assert len(report["results"]["povm_traces"]) == 8

    @pytest.mark.parametrize("argv, message", [
        (["certify", "--fixture", "ideal", "--noise", "0.3"],
         "--noise applies to --fixture depolarized only"),
        (["certify", "--noise", "0"], "--noise applies to --fixture depolarized only"),
        (["certify", "--input", "FILE", "--fixture", "ideal"],
         "argument --fixture: not allowed with argument --input"),
        (["certify", "--input", "FILE", "--noise", "0.05"],
         "--noise applies to --fixture depolarized only"),
        (["certify", "--input", "FILE", "--n", "5"],
         "--n 5 differs from the file's n 2"),
        (["partial-bell", "--input", "FILE", "--noise", "0.5"],
         "argument --noise: not allowed with argument --input"),
        (["partial-bell", "--noise", "0", "--input", "FILE"],
         "argument --input: not allowed with argument --noise"),
        (["seesaw", "--metric", "counterexample", "--n", "3"],
         "metric 'counterexample' is a two-sender game"),
        (["seesaw", "--seed", "-1", "--restarts", "2"], "seed must lie in [0, 2**64)"),
        (["seesaw", "--seed", str(2**64), "--restarts", "2"], "seed must lie in [0, 2**64)"),
        (["sos", "--seed", "-1"], "seed must lie in [0, 2**64)"),
        (["sos", "--seed", str(2**64 - 1), "--samples", "2"],
         "--seed + --samples - 1 must lie below 2**64"),
        (["sos", "--seed", "0", "--samples", str(2**64)], "samples must lie in [0, 2**64)"),
    ], ids=["noise-ideal", "noise-default-fixture", "input-fixture", "input-noise",
            "input-other-n", "partial-bell-input-noise", "partial-bell-noise-0-input",
            "counterexample-n3", "seesaw-seed-negative", "seesaw-seed-2**64",
            "sos-seed-negative", "sos-seeds-past-2**64", "sos-samples-2**64"])
    def test_flag_the_run_cannot_honour_is_an_input_error(self, tmp_path, capsys, argv,
                                                          message):
        strat = tmp_path / "s2.json"
        save_strategy(ideal_strategy(2), str(strat))
        out = tmp_path / "r.json"
        with pytest.raises(SystemExit) as exc:
            main([str(strat) if a == "FILE" else a for a in argv] + ["-o", str(out)])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, strategy, message", [
        ("certify", partial_bell_strategy, "strategy task is 'partial_bell', not 'ghz'"),
        ("partial-bell", lambda: ideal_strategy(2), "strategy task is 'ghz', not 'partial_bell'"),
    ])
    def test_file_of_another_game_is_refused_in_one_wording(self, tmp_path, capsys, command,
                                                            strategy, message):
        strat, out = tmp_path / "s.json", tmp_path / "r.json"
        save_strategy(strategy(), str(strat))
        assert run(parse_args([command, "--input", str(strat), "-o", str(out)])) == 2
        assert capsys.readouterr().err == f"{command}: error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("metric, target", [
        ("ghz", 1 - 1e-6), ("counterexample", 2.8283), ("partial-bell", 1 - 1e-6),
    ])
    def test_seesaw_report_keeps_each_game_target(self, tmp_path, metric, target):
        out = tmp_path / "r.json"
        run(parse_args(["seesaw", "--metric", metric, "--restarts", "1", "--max-iters", "2",
                        "-o", str(out)]))
        assert json.loads(out.read_text())["results"]["target"] == target
        assert f'"target":{target:.17g}}}' in out.read_text()  # the last key of results

    def test_metric_choices_keep_their_order(self, capsys):
        with pytest.raises(SystemExit) as exc:
            parse_args(["seesaw", "--metric", "bogus"])
        assert exc.value.code == 2
        assert ("argument --metric: invalid choice: 'bogus' (choose from 'ghz', "
                "'counterexample', 'partial-bell')") in capsys.readouterr().err

    def test_certify_input_accepts_the_file_n(self, tmp_path):
        strat = tmp_path / "s3.json"
        save_strategy(ideal_strategy(3), str(strat))
        reports = []
        for extra in ([], ["--n", "3"]):
            out = tmp_path / f"r{len(reports)}.json"
            assert run(parse_args(["certify", "--input", str(strat), *extra, "-o", str(out)])) == 0
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]
        assert json.loads(reports[0])["config"]["options"] == {"fixture": None, "noise": None}

    @pytest.mark.parametrize("argv", [
        ["seesaw", "--seed", str(2**64 - 1), "--restarts", "1", "--max-iters", "2"],
        ["sos", "--seed", str(2**64 - 2), "--samples", "2"],
    ], ids=lambda argv: argv[0])
    def test_largest_seeds_are_accepted(self, tmp_path, argv):
        out = tmp_path / "r.json"
        run(parse_args(argv + ["-o", str(out)]))
        assert json.loads(out.read_text())["config"]["seed"] == int(argv[2])

    def test_module_entry_point_runs_the_command(self, tmp_path):
        src = str(Path(ghz_selftest.__file__).parents[1])
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-m", "ghz_selftest.cli",
             "certify", "--fixture", "computational", "--n", "3"],
            cwd=tmp_path, env=dict(os.environ, PYTHONPATH=path),
            capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 1, proc.stderr
        report = json.loads((tmp_path / "report-certify.json").read_text())
        assert report["passed"] is False and report["config"]["n"] == 3

    def test_missing_input_is_io_error(self, tmp_path):
        code = run(parse_args(["certify", "--input", str(tmp_path / "absent.json"),
                               "-o", str(tmp_path / "r.json")]))
        assert code == 2

    def test_malformed_input_is_io_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = run(parse_args(["certify", "--input", str(bad), "-o", str(tmp_path / "r.json")]))
        assert code == 2

    @pytest.mark.parametrize("field, value, path", [
        ("rho", float("nan"), "senders[1].rho[0][1]"),
        ("povm", float("inf"), "povm[2]"),
    ])
    def test_non_finite_strategy_entry_is_an_input_error(self, tmp_path, capsys,
                                                          field, value, path):
        data = strategy_to_dict(ideal_strategy(2))
        matrix = data["senders"][1]["rho"][0][1] if field == "rho" else data["povm"][2]
        matrix[0][0][0] = value
        strat = tmp_path / "s.json"
        strat.write_text(json.dumps(data))
        code = run(parse_args(["certify", "--input", str(strat), "-o", str(tmp_path / "r.json")]))
        assert code == 2
        err = capsys.readouterr().err
        assert "non-finite" in err and path in err
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("entries, message", [
        # a diagonal entry: fails only the identity sum
        ([("povm", 0, 0, 0, 1e308)], "POVM elements do not sum to the identity"),
        # an antisymmetric pair, in the POVM and in a sender state
        ([("povm", 0, 0, 1, 1e308), ("povm", 0, 1, 0, -1e308)],
         "POVM element 0 is not Hermitian"),
        ([("rho", 0, 0, 1, 1e308), ("rho", 0, 1, 0, -1e308)],
         "sender 1: state (0|0) is not Hermitian"),
        # two diagonal entries of one state: its trace is above the float range
        ([("rho", 0, 0, 0, 1e308), ("rho", 0, 1, 1, 1e308)],
         "sender 1: state (0|0) has trace inf"),
        # the same diagonal entry in two elements: their sum overflows
        ([("povm", 2, 0, 0, 1e308), ("povm", 3, 0, 0, 1e308)],
         "POVM elements do not sum to the identity"),
        # off the projector's support (m + m^dag) / 2 overflowed to inf and the
        # eigensolver failed; in halves the least eigenvalue is read at the
        # scale of 1e308, so the eigenvalue rule or the identity sum refuses it
        ([("povm", 0, 1, 1, 1e308)], "POVM element"),
    ])
    def test_huge_finite_entries_are_refused_without_a_warning(self, tmp_path, capsys,
                                                                entries, message):
        # validation works in halves, so no entry near the float range
        # overflows on the way to the verdict (a NumPy overflow warning
        # fails the test)
        data = strategy_to_dict(ideal_strategy(2))
        for field, k, i, j, value in entries:
            matrix = data["senders"][0]["rho"][0][k] if field == "rho" else data["povm"][k]
            matrix[i][j][0] = value
        strat = tmp_path / "s.json"
        strat.write_text(json.dumps(data))
        code = run(parse_args(["certify", "--input", str(strat), "-o", str(tmp_path / "r.json")]))
        assert code == 2
        assert capsys.readouterr().err.startswith(f"certify: error: {message}")
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("entries, message", [
        ([(0, 0, 1e308)], "observable eigenvalues must lie in [-1, 1]"),
        ([(0, 1, 1e308), (1, 0, 1e308)], "observable eigenvalues must lie in [-1, 1]"),
        ([(0, 1, 1e308), (1, 0, -1e308)], "observables must be Hermitian 2x2 matrices"),
    ], ids=["diagonal", "symmetric", "antisymmetric"])
    def test_huge_observable_entries_are_refused_without_a_warning(self, tmp_path, capsys,
                                                                   entries, message):
        data = strategy_to_dict(partial_bell_strategy())
        for i, j, value in entries:
            data["observables"][0][i][j][0] = value
        strat = tmp_path / "s.json"
        strat.write_text(json.dumps(data))
        out = tmp_path / "r.json"
        assert run(parse_args(["partial-bell", "--input", str(strat), "-o", str(out)])) == 2
        assert capsys.readouterr().err == f"partial-bell: error: {message}\n"
        assert not out.exists()

    def test_huge_entry_of_a_positive_element_names_the_bound(self, tmp_path, capsys):
        # element 0 stays positive semidefinite (row and column 1 are zero
        # besides the entry); the eigenvalue rule, whose rounding at 1e308
        # swamps POVM_PSD_ATOL, used to call it not positive semidefinite
        data = strategy_to_dict(ideal_strategy(2))
        data["povm"][0][1][1][0] = 1e308
        strat = tmp_path / "s.json"
        strat.write_text(json.dumps(data))
        code = run(parse_args(["certify", "--input", str(strat), "-o", str(tmp_path / "r.json")]))
        assert code == 2
        assert capsys.readouterr().err == (
            "certify: error: POVM elements do not sum to the identity as positive "
            "semidefinite operators: element 0 has an entry of magnitude 1e+308 at (1, 1) in "
            "its Hermitian part, above the 1.0000000088 that bounds every entry of such "
            "elements\n")
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("defect, field", [
        ("third number in a pair", "povm[0]"),
        ("three of four entries in a row", "povm[1]"),
        ("2x3 matrix", "senders[0].rho[0][0]"),
        ("n not a number", "n is not an integer"),
    ])
    def test_malformed_strategy_file_is_an_input_error(self, tmp_path, capsys, defect, field):
        data = strategy_to_dict(ideal_strategy(2))
        if defect == "third number in a pair":
            data["povm"][0][0][0].append(5.0)
        elif defect == "three of four entries in a row":
            del data["povm"][1][2][3]
        elif defect == "2x3 matrix":
            data["senders"][0]["rho"][0][0] = [row + [[0.0, 0.0]] for row in
                                               data["senders"][0]["rho"][0][0]]
        else:
            data["n"] = "two"
        strat = tmp_path / "s.json"
        strat.write_text(json.dumps(data))
        code = run(parse_args(["certify", "--input", str(strat), "-o", str(tmp_path / "r.json")]))
        assert code == 2
        assert field in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("command, strategy", [
        ("certify", ideal_strategy(2)), ("partial-bell", partial_bell_strategy()),
    ])
    @pytest.mark.parametrize("layout", ["third bit and input", "missing input"])
    def test_rho_of_another_layout_is_an_input_error(self, tmp_path, capsys, command,
                                                     strategy, layout):
        # every sender's rho is read whole: a third bit and a third input are
        # not ignored, and a missing input is named
        data = strategy_to_dict(strategy)
        for sender in data["senders"]:
            rho = sender["rho"]
            if layout == "third bit and input":
                sender["rho"] = [row + [row[0]] for row in rho + [rho[0]]]
            else:
                del rho[1][1]
        strat = tmp_path / "s.json"
        strat.write_text(json.dumps(data))
        out = tmp_path / "r.json"
        assert run(parse_args([command, "--input", str(strat), "-o", str(out)])) == 2
        assert capsys.readouterr().err == (
            f"{command}: error: senders[0].rho is not two rows of two matrices, "
            "indexed [a][x]\n")
        assert not out.exists()

    @pytest.mark.parametrize("command, defect, field, d", [
        ("certify", "every zero entry false", "senders[0].rho[0][0]", 2),
        ("certify", "all entries false", "senders[1].rho[1][0]", 2),
        ("certify", "one true among numbers", "povm[1]", 4),
        ("partial-bell", "true in an observable", "observables[0]", 2),
    ])
    def test_boolean_matrix_entries_are_refused(self, tmp_path, capsys, command, defect,
                                                field, d):
        # NumPy reads booleans among numbers as numbers, and JSON false as 0
        strategy = partial_bell_strategy() if command == "partial-bell" else ideal_strategy(2)
        data = strategy_to_dict(strategy)
        if defect == "every zero entry false":
            data = json.loads(json.dumps(data), parse_float=lambda s: float(s) or False)
        elif defect == "all entries false":
            data["senders"][1]["rho"][1][0] = [[[False, False]] * 2] * 2
        elif defect == "one true among numbers":
            data["povm"][1][0][0][1] = True
        else:
            data["observables"][0][0][1][0] = True
        strat = tmp_path / "s.json"
        strat.write_text(json.dumps(data))
        out = tmp_path / "r.json"
        assert run(parse_args([command, "--input", str(strat), "-o", str(out)])) == 2
        assert capsys.readouterr().err == (
            f"{command}: error: {field} is not a {d}x{d} matrix of [re, im] number pairs\n")
        assert not out.exists()

    @pytest.mark.parametrize("command, strategy", [
        ("certify", ideal_strategy(2)), ("partial-bell", partial_bell_strategy()),
    ])
    @pytest.mark.parametrize("n", [2.7, "2", True, MAX_N + 1, 10**12],
                             ids=["float", "string", "bool", "above-cap", "huge"])
    def test_strategy_file_n_must_be_an_integer_in_range(self, tmp_path, capsys,
                                                          command, strategy, n):
        data = strategy_to_dict(strategy)
        data["n"] = n
        strat = tmp_path / "s.json"
        strat.write_text(json.dumps(data))
        out = tmp_path / "r.json"
        assert run(parse_args([command, "--input", str(strat), "-o", str(out)])) == 2
        assert capsys.readouterr().err == (
            f"{command}: error: strategy file field n is not an integer "
            f"from 2 to {MAX_N}: {n!r}\n")
        assert not out.exists()

    @pytest.mark.parametrize("command, strategy", [
        ("certify", ideal_strategy(2)), ("partial-bell", partial_bell_strategy()),
    ])
    @pytest.mark.parametrize("tag", ["other", None, 1])
    def test_strategy_file_format_tag_must_be_the_written_one(self, tmp_path, capsys,
                                                              command, strategy, tag):
        data = strategy_to_dict(strategy)
        data["format"] = tag
        strat = tmp_path / "s.json"
        strat.write_text(json.dumps(data))
        out = tmp_path / "r.json"
        assert run(parse_args([command, "--input", str(strat), "-o", str(out)])) == 2
        assert capsys.readouterr().err == (
            f"{command}: error: strategy file format is not "
            f"'ghz-selftest/strategy': {tag!r}\n")
        assert not out.exists()
        # a file without the tag is read as the current format
        del data["format"]
        strat.write_text(json.dumps(data))
        assert run(parse_args([command, "--input", str(strat), "-o", str(out)])) == 0

    @pytest.mark.parametrize("command", ["certify", "partial-bell"])
    @pytest.mark.parametrize("content, message", [
        (b"\xff\xfe" + b"{}" * 8, "strategy file is not UTF-8 text"),
        (b"[" * 200000 + b"]" * 200000, "strategy file nests too deeply to parse"),
    ], ids=["not-utf8", "deep-nesting"])
    def test_unreadable_strategy_file_is_an_input_error(self, tmp_path, capsys,
                                                         command, content, message):
        strat = tmp_path / "s.json"
        strat.write_bytes(content)
        out = tmp_path / "r.json"
        assert run(parse_args([command, "--input", str(strat), "-o", str(out)])) == 2
        assert capsys.readouterr().err.startswith(f"{command}: error: {message}")
        assert not out.exists()

    def test_tolerance_override_applies(self, tmp_path):
        out = tmp_path / "r.json"
        code = run(parse_args(["spectrum", "--n", "3", "--tol.spectrum=1e-30", "-o", str(out)]))
        assert code == 1  # float roundoff cannot satisfy an impossible tolerance

    def test_one_outcome_deviation_is_at_most_the_all_outcome_one(self, tmp_path):
        def deviation(*extra):
            out = tmp_path / "r.json"
            assert run(parse_args(["spectrum", "--n", "4", *extra, "-o", str(out)])) == 0
            return json.loads(out.read_text())["results"]["max_numeric_deviation"]

        worst = deviation()
        assert max(deviation("--s", format(m, "04b")) for m in range(16)) == worst

    def test_fidelity_bound_value(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        code = run(parse_args(["fidelity-bound", "--n", "2", "--eps", "0.1", "-o", str(out)]))
        assert code == 0
        assert "bound=0.80428932188134" in capsys.readouterr().out
        report = json.loads(out.read_text())
        assert abs(report["results"]["bound"] - 0.8042893218813452) < 1e-15

    def test_zero_noise_depolarized_matches_ideal(self, tmp_path):
        out = tmp_path / "r.json"
        code = run(parse_args(["certify", "--fixture", "depolarized", "--noise", "0",
                               "-o", str(out)]))
        assert code == 0
        assert abs(json.loads(out.read_text())["results"]["metric_value"] - 1) < 1e-10

    def test_grid_csv_bytes_deterministic(self, tmp_path):
        csvs = []
        for name in ("a.csv", "b.csv"):
            path = tmp_path / name
            run(parse_args(["robustness-grid", "--step", "0.3926990816987241",
                            "--csv", str(path), "-o", str(tmp_path / "r.json")]))
            csvs.append(path.read_bytes())
        assert csvs[0] == csvs[1]

    def test_report_bytes_deterministic(self, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["sos", "--n", "2", "--samples", "3", "--seed", "7"]
        assert run(parse_args(argv + ["-o", str(out1)])) == 0
        assert run(parse_args(argv + ["-o", str(out2)])) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_sos_reports_the_least_shifted_eigenvalue_over_the_samples(self, tmp_path):
        out = tmp_path / "r.json"
        assert run(parse_args(["sos", "--n", "5", "--samples", "4", "--seed", "9",
                               "-o", str(out)])) == 0
        samples = [a_operators(random_antipodal_strategy(5, 9 + k)) for k in range(4)]
        want = min(witness_bounds(ops, DEFAULT_TOLERANCES["spectrum"])[1] for ops in samples)
        assert want > 1
        assert json.loads(out.read_text())["results"]["min_shifted_eigenvalue"] == want

    @pytest.mark.parametrize("argv, message", [
        (["sos", "--samples", "0"], "--samples must be at least 1"),
        (["sos", "--samples", "-3"], "--samples must be at least 1"),
        (["partial-bell", "--noise", "nan"], "noise must lie in [0, 1]"),
        (["partial-bell", "--noise", "-0.5"], "noise must lie in [0, 1]"),
        (["seesaw", "--restarts", "1", "--conv-tol", "nan"], "conv_tol finite and > 0"),
    ], ids=["sos-zero", "sos-negative", "noise-nan", "noise-negative", "conv-tol-nan"])
    def test_vacuous_or_non_finite_option_is_an_input_error(self, tmp_path, capsys,
                                                            argv, message):
        out = tmp_path / "r.json"
        assert run(parse_args(argv + ["-o", str(out)])) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_seesaw_history_and_strategy_export(self, tmp_path):
        out = tmp_path / "r.json"
        hist = tmp_path / "hist.csv"
        strat = tmp_path / "best.json"
        code = run(parse_args([
            "seesaw", "--metric", "ghz", "--n", "2", "--restarts", "3",
            "--history-csv", str(hist), "--save-strategy", str(strat), "-o", str(out),
        ]))
        assert code == 0
        lines = hist.read_text().strip().splitlines()
        assert lines[0] == "restart,iteration,value"
        per_restart = {}
        for line in lines[1:]:
            r, i, v = line.split(",")
            per_restart.setdefault(int(r), []).append(float(v))
        assert set(per_restart) == {0, 1, 2}
        for vals in per_restart.values():
            assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
        best = load_strategy(str(strat))
        assert success_metric(best) >= 1 - 1e-6

    @pytest.mark.parametrize("n, restarts", [(5, 3), (4, 9)])
    def test_seesaw_files_do_not_depend_on_the_block_size(self, tmp_path, monkeypatch,
                                                          n, restarts):
        outputs = []
        for budget in (linalg.BLOCK_ENTRIES, 1):  # one block, then blocks of one
            monkeypatch.setattr(linalg, "BLOCK_ENTRIES", budget)
            files = [tmp_path / name for name in ("r.json", "h.csv", "s.json")]
            assert run(parse_args([
                "seesaw", "--metric", "ghz", "--n", str(n), "--restarts", str(restarts),
                "--seed", "5", "-o", str(files[0]), "--history-csv", str(files[1]),
                "--save-strategy", str(files[2]),
            ])) == 0
            outputs.append([f.read_bytes() for f in files])
        assert outputs[0] == outputs[1]

    def test_counterexample_strategy_export_rejected_before_the_search(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        hist = tmp_path / "h.csv"
        with pytest.raises(SystemExit) as exc:
            main(["seesaw", "--metric", "counterexample", "--restarts", "3",
                  "--history-csv", str(hist), "--save-strategy", str(tmp_path / "s.json"),
                  "-o", str(out)])
        assert exc.value.code == 2
        assert "three-input strategies have no strategy-file form" in capsys.readouterr().err
        assert not out.exists() and not hist.exists()
        assert not (tmp_path / "s.json").exists()

    def test_robustness_grid_csv(self, tmp_path):
        out = tmp_path / "r.json"
        csv = tmp_path / "grid.csv"
        code = run(parse_args([
            "robustness-grid", "--n", "2", "--step", "0.3926990816987241",
            "--csv", str(csv), "-o", str(out),
        ]))
        assert code == 0
        lines = csv.read_text().strip().splitlines()
        assert lines[0] == "s,alpha_1,alpha_2,margin"
        assert len(lines) == 1 + 4 * 5 * 5

    def test_robustness_grid_step_above_pi_sweeps_both_ends(self, tmp_path):
        # two ticks per axis at least: the four corners, not the origin alone
        out = tmp_path / "r.json"
        csv = tmp_path / "grid.csv"
        code = run(parse_args(["robustness-grid", "--n", "2", "--step", "10",
                               "--csv", str(csv), "-o", str(out)]))
        assert code == 0
        assert json.loads(out.read_text())["results"]["points"] == 4 * 2 * 2
        rows = [line.split(",") for line in csv.read_text().strip().splitlines()[1:]]
        corners = np.array([[0.0, 0.0], [0.0, np.pi / 2], [np.pi / 2, 0.0], [np.pi / 2] * 2])
        for s in range(4):
            part = rows[4 * s: 4 * s + 4]
            assert [r[1:3] for r in part] == [[f"{a:.12g}" for a in pt] for pt in corners]
            got = np.array([float(r[3]) for r in part])
            want = robustness._margins(2, s, corners, analytic_params(2))
            assert np.abs(got - want).max() <= 1e-13

    @pytest.mark.parametrize("step", ["1e308", "1.7976931348623157e308"])
    def test_robustness_grid_huge_step_sweeps_as_step_10_does(self, tmp_path, step):
        # the refinement window around the minimum overflowed, and arange
        # ended the run in a ValueError traceback
        results = []
        for s in ("10", step):
            out = tmp_path / "r.json"
            assert run(parse_args(["robustness-grid", "--step", s, "-o", str(out)])) == 0
            results.append(json.loads(out.read_text())["results"])
        assert results[0] == results[1]

    def test_refinement_solves_each_clipped_point_once(self, tmp_path, monkeypatch):
        calls = []  # (points, distinct points) per call
        margins = robustness._margins

        def counting(n, s, angles, params):
            calls.append((len(angles), len(np.unique(angles, axis=0))))
            return margins(n, s, angles, params)

        monkeypatch.setattr(robustness, "_margins", counting)
        # at step 10 every refinement tick clips onto 0 or pi/2: four corners
        robustness.margin_grid(2, step=10.0)
        assert calls == [(4, 4), (4, 4)]
        # the default sweep refines around (pi/4, pi/4), where nothing clips,
        # and its report keeps every byte
        calls.clear()
        out = tmp_path / "r.json"
        assert run(parse_args(["robustness-grid", "--n", "2", "-o", str(out)])) == 0
        assert calls == [(41 * 41, 41 * 41), (81, 81)]
        assert out.read_text() == (
            '{"command":"robustness-grid","config":{"input":null,"n":2,"options":{"csv":null,'
            '"mu":null,"r":null,"step":0.039269908169872414},"seed":0,"tolerances":{}},'
            '"passed":true,"results":{"argmin_angles":[0.7853981633974485,0.7853981633974485],'
            '"argmin_outcome":"00","min_margin":-4.4408920985006262e-16,'
            '"mu":-0.95710678118654757,"points":6724,"r":0.69194173824159222},'
            '"version":"0.1.0"}')

    @pytest.mark.parametrize("step", ["0", "-0.1", "nan"])
    def test_robustness_grid_bad_step_is_an_input_error(self, tmp_path, capsys, step):
        out = tmp_path / "r.json"
        code = run(parse_args(["robustness-grid", "--step", step, "-o", str(out)]))
        assert code == 2
        assert "step must be a positive finite number" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("step", ["1e-6", "5e-324"])
    def test_robustness_grid_too_large_is_an_input_error(self, tmp_path, capsys, step):
        out = tmp_path / "r.json"
        code = run(parse_args(["robustness-grid", "--n", "2", "--step", step, "-o", str(out)]))
        assert code == 2
        assert "exceeds the limit" in capsys.readouterr().err
        assert not out.exists()

    def test_fidelity_bound_nan_eps_is_an_input_error(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        code = run(parse_args(["fidelity-bound", "--n", "2", "--eps", "nan", "-o", str(out)]))
        assert code == 2
        assert "eps must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_robustness_grid_violation_fails_with_report(self, tmp_path):
        out = tmp_path / "r.json"
        csv = tmp_path / "grid.csv"
        code = run(parse_args([
            "robustness-grid", "--step", "0.3926990816987241", "--r", "0.3535533905932738",
            "--mu", "0.0", "--csv", str(csv), "-o", str(out),
        ]))
        assert code == 1
        report = json.loads(out.read_text())
        assert report["passed"] is False
        assert report["results"]["min_margin"] < -1e-6
        assert report["results"]["points"] == 4 * 5 * 5
        assert len(csv.read_text().strip().splitlines()) == 1 + 4 * 5 * 5

    def test_counterexample_report(self, tmp_path):
        out = tmp_path / "r.json"
        code = run(parse_args(["counterexample", "-o", str(out)]))
        assert code == 0
        report = json.loads(out.read_text())
        ent = report["results"]["entangling"]
        sep = report["results"]["separable"]
        assert any(e["entangled"] for e in ent["outcome_classification"])
        assert not any(e["entangled"] for e in sep["outcome_classification"])

    def test_partial_bell_report(self, tmp_path):
        out = tmp_path / "r.json"
        code = run(parse_args(["partial-bell", "-o", str(out)]))
        assert code == 0
        res = json.loads(out.read_text())["results"]
        assert abs(res["comm_metric"] - 1) < 1e-10
        assert abs(res["rac_metric"] - (1 + 1 / np.sqrt(2)) / 2) < 1e-10
        assert abs(res["witness_traces"][2] - 4 * np.sqrt(2)) < 1e-10
        assert abs(res["fidelity_bound"] - 1) < 1e-10

    @pytest.mark.parametrize("command, strategy", [
        ("certify", ideal_strategy(3)), ("partial-bell", partial_bell_strategy()),
    ])
    def test_strategy_file_is_validated_once(self, tmp_path, monkeypatch, command, strategy):
        calls = []
        validate = Povm.validate

        def counting(self, *args, **kwargs):
            calls.append(len(self))
            return validate(self, *args, **kwargs)

        monkeypatch.setattr(Povm, "validate", counting)
        strat = tmp_path / "s.json"
        save_strategy(strategy, str(strat))
        code = run(parse_args([command, "--input", str(strat), "-o", str(tmp_path / "r.json")]))
        assert code == 0
        assert calls == [len(strategy.povm)]

    @pytest.mark.parametrize("command, strategy", [
        ("certify", ideal_strategy(2)), ("partial-bell", partial_bell_strategy()),
    ])
    def test_invalid_strategy_file_is_an_input_error(self, tmp_path, capsys, command, strategy):
        data = strategy_to_dict(strategy)
        data["povm"][1] = [[[-re, -im] for re, im in row] for row in data["povm"][1]]
        strat = tmp_path / "s.json"
        strat.write_text(json.dumps(data))
        out = tmp_path / "r.json"
        assert run(parse_args([command, "--input", str(strat), "-o", str(out)])) == 2
        assert capsys.readouterr().err == (
            f"{command}: error: POVM element 1 is not positive semidefinite\n")
        assert not out.exists()

    def test_invalid_state_names_its_sender(self, tmp_path, capsys):
        data = strategy_to_dict(ideal_strategy(3))
        data["senders"][2]["rho"][1][0] = [[[0.9, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
        strat = tmp_path / "s.json"
        strat.write_text(json.dumps(data))
        out = tmp_path / "r.json"
        assert run(parse_args(["certify", "--input", str(strat), "-o", str(out)])) == 2
        assert capsys.readouterr().err == (
            "certify: error: sender 3: state (1|0) has trace 0.9\n")
        assert not out.exists()

    def test_unwritable_report_path_is_an_input_error(self, tmp_path, capsys):
        out = tmp_path / "missing" / "r.json"
        assert run(parse_args(["certify", "--n", "2", "-o", str(out)])) == 2
        err = capsys.readouterr().err
        assert err.startswith("certify: error: ") and "No such file or directory" in err
        assert not out.exists()

    def test_partial_bell_strategy_file(self, tmp_path):
        strat = tmp_path / "pb.json"
        out = tmp_path / "r.json"
        save_strategy(partial_bell_strategy(), str(strat))
        code = run(parse_args(["partial-bell", "--input", str(strat), "-o", str(out)]))
        assert code == 0
        assert abs(json.loads(out.read_text())["results"]["comm_metric"] - 1) < 1e-10

    def test_rac_report(self, tmp_path):
        out = tmp_path / "r.json"
        assert run(parse_args(["rac", "-o", str(out)])) == 0
        res = json.loads(out.read_text())["results"]
        assert abs(res["rac_metric"] - 0.8535533905932737) < 1e-12

    def test_spectrum_report(self, tmp_path):
        out = tmp_path / "r.json"
        assert run(parse_args(["spectrum", "--n", "3", "-o", str(out)])) == 0
        res = json.loads(out.read_text())["results"]
        assert res["max_numeric_deviation"] <= 1e-9
        assert abs(res["top_value"] - 4 * np.sqrt(2)) < 1e-12
        assert len(res["eigenvalues_by_outcome"]) == 8

    def test_spectrum_of_one_outcome_matches_its_entry_in_all(self, tmp_path):
        one, every = tmp_path / "one.json", tmp_path / "all.json"
        assert run(parse_args(["spectrum", "--n", "4", "--s", "0110", "-o", str(one)])) == 0
        assert run(parse_args(["spectrum", "--n", "4", "-o", str(every)])) == 0
        one, every = (json.loads(p.read_text())["results"] for p in (one, every))
        assert one["eigenvalues_by_outcome"] == {
            "0110": every["eigenvalues_by_outcome"]["0110"]}
        assert one["max_numeric_deviation"] <= every["max_numeric_deviation"] <= 1e-9


# the strategy files the fuzzer mutates
FUZZ_BASES = {
    "ideal-2": lambda: ideal_strategy(2),
    "partial-bell": partial_bell_strategy,
    "antipodal-3": lambda: random_antipodal_strategy(3, 1),
}
# replacement values, as text so that each draw is a fresh object
RETYPED = ["null", "true", '"x"', "[]", "{}", "0", "2.5", "[[1, 0]]"]


@cache
def fuzz_base_text(name: str) -> str:
    """The bytes ``save_strategy`` writes for a base strategy."""
    return canonical_json(strategy_to_dict(FUZZ_BASES[name]()))


def json_paths(node, prefix=()):
    """The path of every key and list item in a JSON tree."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield prefix + (key,), child
        yield from json_paths(child, prefix + (key,))


@st.composite
def mutated_strategy_files(draw):
    """A saved strategy file after one or two mutations: a deleted key or
    item, a retyped value, an entry set to +-1e308 or NaN, or a truncation."""
    tree = json.loads(fuzz_base_text(draw(st.sampled_from(sorted(FUZZ_BASES)))))
    kinds = draw(st.lists(st.sampled_from(["delete", "retype", "extreme", "truncate"]),
                          min_size=1, max_size=2))
    for kind in kinds:
        paths = list(json_paths(tree))
        if kind == "extreme":
            paths = [(p, v) for p, v in paths
                     if isinstance(v, (int, float)) and not isinstance(v, bool)]
        if kind == "truncate" or not paths:
            continue
        path, _ = draw(st.sampled_from(paths))
        parent = tree
        for key in path[:-1]:
            parent = parent[key]
        if kind == "delete":
            del parent[path[-1]]
        elif kind == "retype":
            parent[path[-1]] = json.loads(draw(st.sampled_from(RETYPED)))
        else:
            parent[path[-1]] = draw(st.sampled_from([1e308, -1e308, math.nan]))
    text = json.dumps(tree)
    if "truncate" in kinds:
        text = text[:draw(st.integers(0, len(text) - 1))]
    return draw(st.sampled_from(["certify", "partial-bell"])), text


@settings(max_examples=60)
@given(case=mutated_strategy_files())
def test_mutated_strategy_file_ends_in_an_exit_status(case):
    command, text = case
    with tempfile.TemporaryDirectory() as d, warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        path, out = Path(d) / "s.json", Path(d) / "r.json"
        path.write_text(text, encoding="utf-8")
        code = run(parse_args([command, "--input", str(path), "-o", str(out)]))
        assert code in (0, 1, 2)
        assert out.exists() == (code in (0, 1))


# a number token of a saved file, and what an edit puts in its place
NUMBER_TOKEN = re.compile(rb"-?[0-9][-+.0-9Ee]*")
NUMBER_EDITS = [b"01", b".5", b"5.", b"+1", b"1e", b"1_0", b"NaN", b"Infinity", b"1e400", b"-0",
                b"true", b"null", b'"0.5"', b"18446744073709551616"]


@st.composite
def edited_strategy_files(draw):
    """A saved strategy file with one edit: a number token replaced, a
    trailing comma before a closing bracket, a bracket dropped or doubled,
    a row's last number dropped, or a non-ASCII byte inserted."""
    text = fuzz_base_text(draw(st.sampled_from(sorted(FUZZ_BASES)))).encode()
    kind = draw(st.sampled_from(["number", "trailing comma", "drop bracket", "extra bracket",
                                 "ragged row", "non-ascii"]))
    if kind == "number":
        start, end = draw(st.sampled_from([m.span() for m in NUMBER_TOKEN.finditer(text)]))
        text = text[:start] + draw(st.sampled_from(NUMBER_EDITS)) + text[end:]
    elif kind == "ragged row":
        start, end = draw(st.sampled_from(
            [m.span() for m in re.finditer(rb",-?[0-9][-+.0-9Ee]*\]", text)]))
        text = text[:start] + text[end - 1:]
    elif kind == "non-ascii":
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from([b"\xff", "\u00e9".encode()])) + text[at:]
    else:
        closing = kind == "trailing comma"
        at = draw(st.sampled_from([m.start() for m in re.finditer(
            rb"\]" if closing else rb"[\[\]]", text)]))
        edit = b"," if closing else b"" if kind == "drop bracket" else text[at:at + 1]
        text = text[:at] + edit + text[at + (kind == "drop bracket"):]
    return draw(st.sampled_from(["certify", "partial-bell"])), text


# slices of 7 and 97 bytes cut each array of the n <= 3 bases many times
@pytest.mark.parametrize("block", [linalg.BLOCK_ENTRIES, 7, 97])
@settings(max_examples=150)
@given(case=edited_strategy_files())
def test_edited_strategy_file_reads_as_the_reference_does(block, case):
    # exit code, message and report are those of the nested-list loader
    command, text = case
    with tempfile.TemporaryDirectory() as d, pytest.MonkeyPatch.context() as patch:
        path = Path(d) / "s.json"
        path.write_bytes(text)
        patch.setattr(linalg, "BLOCK_ENTRIES", block)
        assert cli_outcome(command, path, d) == cli_outcome(command, path, d, reference_load)


# values no flag should take; a name under "@/" is a file of the case's
# directory, and "@/" the directory itself
HOSTILE = ["nan", "inf", "-inf", "1e308", str(2**64), "abc", "0", "-1", "-0.5"]
INPUTS = [f"@/{name}.json" for name in sorted(FUZZ_BASES)] + ["@/missing.json"]
R, MU = repr(analytic_params(2).r), repr(analytic_params(2).mu)
# each command's optional flags with the valid values they may take
ARGV_FLAGS = {
    "certify": {"--n": ["2", "3"], "--input": INPUTS, "--noise": ["0.1"],
                "--fixture": ["ideal", "literal", "computational", "depolarized"]},
    "spectrum": {"--n": ["2", "3"], "--s": ["all", "01", "110"]},
    "sos": {"--n": ["2", "3"], "--seed": ["0", "7"]},
    "seesaw": {"--n": ["2", "3"], "--seed": ["0", "7"], "--conv-tol": ["1e-10", "0.5"],
               "--metric": ["ghz", "counterexample", "partial-bell"],
               "--history-csv": ["@/h.csv", "@/"], "--save-strategy": ["@/s.json", "@/"]},
    "counterexample": {},
    "robustness-grid": {"--n": ["2", "3"], "--r": [R], "--mu": [MU], "--csv": ["@/g.csv", "@/"]},
    "fidelity-bound": {"--n": ["2", "3"], "--eps": ["0.1"], "--r": [R], "--mu": [MU]},
    "partial-bell": {"--input": INPUTS, "--noise": ["0.1"]},
    "rac": {"--alpha": ["0.5"]},
}
# the flags that size a run, always given and bounded small
BOUNDED_FLAGS = {
    "sos": {"--samples": ["1", "3"]},
    "seesaw": {"--restarts": ["1", "3"], "--max-iters": ["1", "5"]},
    "robustness-grid": {"--step": ["0.8", "1.6"]},
}


def hostile_values(flag):
    """What a flag may take besides its valid values: no path outside the
    case's directory."""
    if flag in ("--input", "--history-csv", "--save-strategy", "--csv"):
        return []
    return HOSTILE


@st.composite
def hostile_argvs(draw):
    """A command with its bounded flags, a subset of its other flags and maybe
    a tolerance override, each value as likely valid as hostile."""
    command = draw(st.sampled_from(sorted(ARGV_FLAGS)))
    flags = ARGV_FLAGS[command]
    chosen = draw(st.lists(st.sampled_from(sorted(flags)), unique=True)) if flags else []
    argv = [command]
    for flag, valid in [*BOUNDED_FLAGS.get(command, {}).items(), *((f, flags[f]) for f in chosen)]:
        hostile = hostile_values(flag) or valid
        argv += [flag, draw(st.sampled_from(valid) | st.sampled_from(hostile))]
    if draw(st.sampled_from([False, False, True])):
        name = draw(st.sampled_from(sorted(DEFAULT_TOLERANCES) + ["bogus"]))
        argv.append(f"--tol.{name}={draw(st.sampled_from(['1e-6'] + HOSTILE))}")
    return argv


@settings(max_examples=400)
@given(argv=hostile_argvs())
def test_hostile_argv_ends_in_an_exit_status(argv):
    with tempfile.TemporaryDirectory() as d, warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for name in FUZZ_BASES:
            (Path(d) / f"{name}.json").write_text(fuzz_base_text(name), encoding="utf-8")
        out = Path(d) / "report.json"
        args = [str(Path(d) / a[2:]) if a.startswith("@/") else a for a in argv]
        err = io.StringIO()
        with (contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err),
              pytest.raises(SystemExit) as exc):
            main(args + ["-o", str(out)])
        assert exc.value.code in (0, 1, 2)
        assert out.exists() == (exc.value.code in (0, 1))
        assert "Traceback" not in err.getvalue()
