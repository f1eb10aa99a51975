"""Tests for the command-line interface and the solve-API boundary."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.core import solve_ising, solve_maxcut
from repro.ising import IsingModel, MaxCutProblem, generate_random, write_gset


@pytest.fixture
def instance_file(tmp_path):
    path = tmp_path / "toy.gset"
    write_gset(generate_random(40, 150, seed=3), path)
    return str(path)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_known_commands(self):
        parser = build_parser()
        for argv in (
            ["generate", "out.gset"],
            ["solve", "in.gset"],
            ["compare", "in.gset"],
            ["curves"],
            ["suite"],
        ):
            args = parser.parse_args(argv)
            assert callable(args.func)


class TestCommands:
    def test_generate_and_solve(self, tmp_path, capsys):
        out = str(tmp_path / "gen.gset")
        assert main(["generate", out, "--nodes", "30", "--edges", "80", "--seed", "1"]) == 0
        assert main(["solve", out, "--iterations", "500", "--seed", "2"]) == 0
        printed = capsys.readouterr().out
        assert "best cut" in printed

    def test_generate_families(self, tmp_path):
        for family in ("random", "skew", "toroidal"):
            out = str(tmp_path / f"{family}.gset")
            code = main(
                ["generate", out, "--nodes", "36", "--edges", "60",
                 "--family", family, "--seed", "1"]
            )
            assert code == 0

    def test_solve_method_and_backend_selection(self, instance_file, capsys):
        """Every method × backend combination solves through the CLI."""
        for method in ("insitu", "sa", "mesa", "sb"):
            for backend in ("auto", "dense", "sparse", "packed"):
                code = main(
                    ["solve", instance_file, "--iterations", "400",
                     "--method", method, "--backend", backend, "--seed", "5"]
                )
                assert code == 0
        printed = capsys.readouterr().out
        assert "best cut" in printed

    def test_solve_rejects_unknown_backend(self, instance_file):
        with pytest.raises(SystemExit):
            main(["solve", instance_file, "--backend", "csr"])

    def test_solve_packed_backend_matches_sparse(self, instance_file, capsys):
        """--backend packed reports the identical cut as sparse (the
        bit-identity contract), including on the replica batch path."""
        outputs = []
        for backend in ("sparse", "packed"):
            code = main(
                ["solve", instance_file, "--iterations", "400", "--backend",
                 backend, "--replicas", "4", "--flips", "2", "--seed", "9"]
            )
            assert code == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_solve_on_tiled_machine(self, instance_file, capsys):
        code = main(
            ["solve", instance_file, "--iterations", "300", "--tile-size",
             "16", "--backend", "sparse", "--seed", "5"]
        )
        assert code == 0
        assert "best cut" in capsys.readouterr().out

    def test_solve_with_reordering(self, instance_file, capsys):
        """Every reorder mode solves through the CLI and agrees on the cut.

        The instance's ±1 weights store exactly, so the reordered tiled
        runs must report the identical best cut as the unreordered one.
        """
        cuts = []
        for reorder in ("none", "rcm", "auto"):
            code = main(
                ["solve", instance_file, "--iterations", "300", "--tile-size",
                 "16", "--backend", "sparse", "--seed", "5",
                 "--reorder", reorder]
            )
            assert code == 0
            out = capsys.readouterr().out
            cuts.append(out.strip().splitlines()[-1])
        assert cuts[0] == cuts[1] == cuts[2]

    def test_solve_reorder_without_tiles_on_software_solver(self, instance_file):
        code = main(
            ["solve", instance_file, "--iterations", "300", "--method", "sa",
             "--reorder", "rcm", "--seed", "5"]
        )
        assert code == 0

    def test_solve_rejects_unknown_reorder(self, instance_file):
        with pytest.raises(SystemExit):
            main(["solve", instance_file, "--reorder", "zigzag"])

    def test_tile_size_rejected_for_non_insitu(self, instance_file, capsys):
        code = main(
            ["solve", instance_file, "--iterations", "300", "--tile-size",
             "16", "--method", "sa"]
        )
        assert code == 2
        assert "tile_size" in capsys.readouterr().err

    def test_solve_with_replicas(self, instance_file, capsys):
        """The replica-batch path through the CLI, with multi-flip moves."""
        for method in ("insitu", "sa"):
            code = main(
                ["solve", instance_file, "--iterations", "300", "--method",
                 method, "--replicas", "6", "--flips", "4", "--seed", "5"]
            )
            assert code == 0
        printed = capsys.readouterr().out
        assert "6 replicas" in printed
        assert "best cut" in printed
        assert "mean" in printed

    def test_solve_replicas_with_reorder_and_partition(self, instance_file, capsys):
        code = main(
            ["solve", instance_file, "--iterations", "300", "--replicas", "4",
             "--backend", "sparse", "--reorder", "rcm", "--partition",
             "--seed", "5"]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "partition sizes" in printed

    def test_solve_sb_variants(self, instance_file, capsys):
        """Both SB flavours solve through the CLI; the solver line names
        the variant."""
        for variant, label in (("discrete", "dSB"), ("ballistic", "bSB")):
            code = main(
                ["solve", instance_file, "--iterations", "300", "--method",
                 "sb", "--sb-variant", variant, "--seed", "5"]
            )
            assert code == 0
            assert label in capsys.readouterr().out

    def test_solve_sb_with_replicas(self, instance_file, capsys):
        code = main(
            ["solve", instance_file, "--iterations", "300", "--method", "sb",
             "--replicas", "6", "--seed", "5"]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "6 replicas" in printed
        assert "best cut" in printed

    def test_solve_sb_on_tiled_machine(self, instance_file, capsys):
        """SB accepts tile_size — including with replicas, which the flip
        path rejects — serving the matvec from the tiled behavioral MVM."""
        code = main(
            ["solve", instance_file, "--iterations", "300", "--method", "sb",
             "--tile-size", "16", "--backend", "sparse", "--seed", "5"]
        )
        assert code == 0
        code = main(
            ["solve", instance_file, "--iterations", "300", "--method", "sb",
             "--tile-size", "16", "--replicas", "4", "--reorder", "rcm",
             "--backend", "sparse", "--seed", "5"]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "4 replicas" in printed

    def test_solve_sb_rejects_unknown_variant(self, instance_file):
        with pytest.raises(SystemExit):
            main(["solve", instance_file, "--method", "sb",
                  "--sb-variant", "goto"])

    def test_solve_refuses_a_flag_the_method_does_not_take(
        self, instance_file, capsys
    ):
        """A misapplied engine flag fails instead of being dropped."""
        for argv, knob in (
            (["--method", "sb", "--flips", "3"], "flips_per_iteration"),
            (["--method", "insitu", "--sb-variant", "ballistic"], "variant"),
        ):
            code = main(["solve", instance_file, "--iterations", "50", *argv])
            assert code == 2
            err = capsys.readouterr().err
            assert f"takes no {knob};" in err
            # --repeat compiles through the same plan boundary.
            assert main(
                ["solve", instance_file, "--repeat", "2", *argv]
            ) == 2
            assert f"takes no {knob};" in capsys.readouterr().err

    def test_solve_replicas_rejected_for_mesa(self, instance_file, capsys):
        code = main(
            ["solve", instance_file, "--method", "mesa", "--replicas", "4"]
        )
        assert code == 2
        assert "batch engine" in capsys.readouterr().err

    def test_solve_replicas_rejected_with_tiles(self, instance_file, capsys):
        code = main(
            ["solve", instance_file, "--replicas", "4", "--tile-size", "16"]
        )
        assert code == 2
        assert "tile_size" in capsys.readouterr().err

    def test_solve_with_reference_and_partition(self, instance_file, capsys):
        code = main(
            ["solve", instance_file, "--iterations", "2000", "--reference",
             "--partition", "--method", "sa"]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "reference cut" in printed
        assert "partition sizes" in printed

    def test_compare(self, instance_file, capsys):
        assert main(["compare", instance_file, "--iterations", "200"]) == 0
        printed = capsys.readouterr().out
        assert "CiM/FPGA" in printed
        assert "E ratio" in printed

    def test_curves_both_devices(self, capsys):
        assert main(["curves", "--device", "fefet", "--points", "5"]) == 0
        assert main(["curves", "--device", "dgfefet", "--points", "5"]) == 0
        printed = capsys.readouterr().out
        assert "Fig 2b" in printed
        assert "Fig 6b" in printed

    def test_suite_lists_30(self, capsys):
        assert main(["suite"]) == 0
        printed = capsys.readouterr().out
        assert "R800-0" in printed
        assert "T3000-2" in printed


class TestSolveBoundaryValidation:
    """The solve API fails with actionable errors, not deep-loop crashes."""

    @pytest.fixture
    def model(self):
        return IsingModel.random(12, seed=1)

    @pytest.fixture
    def problem(self):
        return MaxCutProblem.random(12, 30, seed=1)

    def test_unknown_method_raises_value_error(self, model):
        with pytest.raises(ValueError, match="unknown method 'annealinator'"):
            solve_ising(model, method="annealinator")

    def test_non_positive_iterations(self, model, problem):
        for bad in (0, -5):
            with pytest.raises(ValueError, match="iterations must be >= 1"):
                solve_ising(model, iterations=bad)
            with pytest.raises(ValueError, match="iterations must be >= 1"):
                solve_maxcut(problem, iterations=bad)

    def test_non_integer_iterations(self, model):
        with pytest.raises(ValueError, match="iterations must be an integer"):
            solve_ising(model, iterations="lots")
        with pytest.raises(ValueError, match="iterations must be an integer"):
            solve_ising(model, iterations=10.5)
        # integral floats and numpy ints are fine
        assert solve_ising(model, iterations=50.0, seed=0).iterations == 50
        assert solve_ising(model, iterations=np.int64(50), seed=0).iterations == 50

    def test_boolean_iterations_rejected(self, model, problem):
        """``iterations=True`` used to pass operator.index and run once."""
        for bad in (True, False):
            with pytest.raises(ValueError, match="iterations must be an integer"):
                solve_ising(model, iterations=bad)
            with pytest.raises(ValueError, match="iterations must be an integer"):
                solve_maxcut(problem, iterations=bad)

    def test_boolean_replicas_rejected(self, model):
        """Same bool trap for the replica-count boundary."""
        from repro.core import BatchDirectEAnnealer, BatchInSituAnnealer

        for engine in (BatchInSituAnnealer, BatchDirectEAnnealer):
            with pytest.raises(ValueError, match="replicas must be an integer"):
                engine(model, replicas=True)
            with pytest.raises(ValueError, match="replicas must be >= 1"):
                engine(model, replicas=0)
        with pytest.raises(ValueError, match="replicas must be an integer"):
            solve_ising(model, replicas=True)
        with pytest.raises(ValueError, match="replicas must be >= 1"):
            solve_ising(model, replicas=0)
        # the boundary check runs before method-specific dispatch — the SB
        # path must not re-admit the bool
        with pytest.raises(ValueError, match="replicas must be an integer"):
            solve_ising(model, method="sb", replicas=True)
        with pytest.raises(ValueError, match="replicas must be an integer"):
            solve_ising(model, replicas=2.5)

    def test_seed_validated_at_boundary(self, model):
        """``seed=True`` used to run as seed 1; ``seed=-1`` failed inside
        numpy with a message that named no parameter."""
        with pytest.raises(ValueError, match="seed must be an integer, got True"):
            solve_ising(model, iterations=10, seed=True)
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            solve_ising(model, iterations=10, seed=-1)
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            solve_ising(model, iterations=10, seed=-1, replicas=2)
        assert solve_ising(model, iterations=10, seed=0).iterations == 10

    def test_reference_cut_validated_at_boundary(self, problem):
        """Non-numeric reference cuts fail at the API, not downstream.

        ``reference_cut=True`` used to flow into the result object and
        silently act as a best-known cut of 1.0 in every normalised
        quantity; strings and NaN only exploded later inside
        ``normalized_cut``.
        """
        with pytest.raises(ValueError, match="reference_cut must be a real number"):
            solve_maxcut(problem, reference_cut=True)
        with pytest.raises(ValueError, match="reference_cut must be a real number"):
            solve_maxcut(problem, reference_cut="1516")
        with pytest.raises(ValueError, match="reference_cut must be a real number"):
            solve_maxcut(problem, reference_cut=[40.0])
        with pytest.raises(ValueError, match="reference_cut must be finite"):
            solve_maxcut(problem, reference_cut=float("nan"))
        with pytest.raises(ValueError, match="reference_cut must be finite"):
            solve_maxcut(problem, reference_cut=float("inf"))
        # numeric values (including numpy scalars) pass through
        result = solve_maxcut(
            problem, iterations=50, seed=0, reference_cut=np.float64(40.0)
        )
        assert result.reference_cut == 40.0
        assert result.normalized_cut == result.best_cut / 40.0

    def test_boolean_iterations_rejected_at_engine_level(self, model):
        """run(True) on the engines themselves, not just the solve API."""
        from repro.core import DirectEAnnealer, InSituAnnealer, MesaAnnealer

        for engine in (InSituAnnealer, DirectEAnnealer, MesaAnnealer):
            with pytest.raises(ValueError, match="iterations must be an integer"):
                engine(model, seed=0).run(True)

    def test_boolean_flips_rejected_everywhere(self, model):
        """flips_per_iteration=True must not silently run single-flip."""
        for method in ("insitu", "sa", "mesa"):
            with pytest.raises(
                ValueError, match="flips_per_iteration must be an integer"
            ):
                solve_ising(model, method=method, flips_per_iteration=True)
        with pytest.raises(
            ValueError, match="flips_per_iteration must be an integer"
        ):
            solve_ising(model, replicas=3, flips_per_iteration=True)

    def test_empty_model_rejected(self):
        empty = IsingModel(np.zeros((0, 0)))
        with pytest.raises(ValueError, match="no spins"):
            solve_ising(empty)

    def test_non_model_rejected(self):
        with pytest.raises(ValueError, match="IsingModel"):
            solve_ising(np.zeros((4, 4)))

    def test_unknown_backend_raises(self, model, problem):
        with pytest.raises(ValueError, match="unknown backend 'csr'"):
            solve_ising(model, backend="csr")
        with pytest.raises(ValueError, match="unknown backend 'csr'"):
            solve_maxcut(problem, backend="csr")

    def test_boolean_tile_size_rejected(self, model, problem):
        """``tile_size=True`` must not silently run with 1-row tiles."""
        with pytest.raises(ValueError, match="tile_size must be an integer"):
            solve_ising(model, tile_size=True)
        with pytest.raises(ValueError, match="tile_size must be an integer"):
            solve_maxcut(problem, tile_size=True)

    def test_non_positive_tile_size_rejected(self, model, problem):
        for bad in (0, -4, 1):
            with pytest.raises(ValueError, match="tile_size must be >= 2"):
                solve_ising(model, tile_size=bad)
            with pytest.raises(ValueError, match="tile_size must be >= 2"):
                solve_maxcut(problem, tile_size=bad)

    def test_unknown_reorder_raises(self, model, problem):
        with pytest.raises(ValueError, match="unknown reorder 'zigzag'"):
            solve_ising(model, reorder="zigzag")
        with pytest.raises(ValueError, match="unknown reorder 'zigzag'"):
            solve_maxcut(problem, reorder="zigzag")
        # "degree" is an internal fallback strategy, not a public knob
        with pytest.raises(ValueError, match="unknown reorder 'degree'"):
            solve_ising(model, reorder="degree")

    def test_reorder_accepts_none_and_modes(self, model):
        for reorder in (None, "none", "rcm", "auto"):
            r = solve_ising(model, iterations=60, seed=2, reorder=reorder)
            assert r.iterations == 60

    def test_reorder_conflicts_with_explicit_permutation(self, model):
        perm = np.arange(model.num_spins)[::-1].copy()
        with pytest.raises(ValueError, match="not both"):
            solve_ising(model, reorder="rcm", permutation=perm)

    def test_backend_override_solves(self, model):
        r = solve_ising(model, iterations=100, seed=3, backend="sparse")
        assert r.best_energy <= r.energy + 1e-9
