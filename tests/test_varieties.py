import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import syzstab
from syzstab import (
    InconsistentInputError,
    InvalidVarietyError,
    SheafSpec,
    UnknownVarietyError,
    UsageError,
    catalog_entries,
    catalog_lookup,
    catalog_names,
    derive_genus,
    make_variety,
    parse_problem,
)


class TestDeriveGenus:
    def test_projective_space(self):
        # the section curve of P3 is a line
        assert derive_genus(3, 1, 4) == 0

    def test_quartic_surface(self):
        # plane quartic: (4-1)(4-2)/2
        assert derive_genus(2, 4, 0) == 3

    def test_curve_case(self):
        assert derive_genus(1, 1, -4) == 3

    def test_parity_violation(self):
        with pytest.raises(InvalidVarietyError, match="odd"):
            derive_genus(2, 1, 2)

    def test_negative_genus(self):
        with pytest.raises(InvalidVarietyError, match="negative"):
            derive_genus(1, 1, 6)

    def test_bad_dimension(self):
        with pytest.raises(InvalidVarietyError):
            derive_genus(0, 1, 0)
        with pytest.raises(InvalidVarietyError):
            derive_genus(2, 0, 0)


class TestCatalog:
    def test_names(self):
        names = catalog_names()
        assert len(names) == 18
        for n in range(1, 6):
            assert f"P{n}" in names
        for e in range(1, 10):
            assert f"delpezzo-{e}" in names
        for hyp in ("quadric-surface", "cubic-surface", "quartic-K3", "quintic-surface"):
            assert hyp in names

    def test_p2(self):
        v = catalog_lookup("P2")
        assert (v.dim, v.h_top, v.c1_dot_h, v.genus) == (2, 1, 3, 0)

    def test_quartic_k3(self):
        v = catalog_lookup("quartic-K3")
        assert (v.dim, v.h_top, v.c1_dot_h, v.genus) == (2, 4, 0, 3)

    def test_delpezzo_3(self):
        v = catalog_lookup("delpezzo-3")
        assert (v.dim, v.h_top, v.c1_dot_h, v.genus) == (2, 3, 3, 1)

    def test_hypersurface_family(self):
        # degree-e hypersurface in P3 has c1_dot_h = (4-e)*e
        for name, e in (("quadric-surface", 2), ("cubic-surface", 3),
                        ("quartic-K3", 4), ("quintic-surface", 5)):
            v = catalog_lookup(name)
            assert (v.dim, v.h_top, v.c1_dot_h) == (2, e, (4 - e) * e)

    def test_every_entry_rederives(self):
        for v in catalog_entries():
            assert derive_genus(v.dim, v.h_top, v.c1_dot_h) == v.genus

    def test_projective_spaces_have_genus_zero(self):
        for n in range(1, 6):
            assert catalog_lookup(f"P{n}").genus == 0

    def test_unknown_name_lists_choices(self):
        with pytest.raises(UnknownVarietyError, match="quartic-K3"):
            catalog_lookup("P9")

    def test_needs_no_data_file_and_no_resources_import(self):
        # -S: a site hook may import importlib.resources in any interpreter
        package = Path(syzstab.__file__).parent
        probe = ("import sys; from syzstab import cli; code = cli.main(['catalog', 'show', 'P3']); "
                 "assert 'importlib.resources' not in sys.modules, 'importlib.resources loaded'; "
                 "sys.exit(code)")
        proc = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=str(package.parent)))
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["result"]["entry"]["name"] == "P3"
        stray = [p.name for p in package.iterdir() if p.suffix != ".py" and p.name != "__pycache__"]
        assert stray == []


class TestSheafSpec:
    def test_basic(self):
        s = SheafSpec(rank=2, degree=5)
        assert s.sections is None

    def test_rejects_nonpositive_rank(self):
        with pytest.raises(InconsistentInputError):
            SheafSpec(rank=0, degree=1)

    def test_rejects_negative_sections(self):
        with pytest.raises(InconsistentInputError):
            SheafSpec(rank=1, degree=1, sections=-1)

    def test_hilbert_needs_regularity(self):
        with pytest.raises(UsageError):
            SheafSpec(rank=1, degree=0, hilbert=(1,), regularity=None)


class TestParseProblem:
    def test_catalog_route(self):
        v, s = parse_problem({"variety": {"name": "P2"}, "sheaf": {"rank": 1, "degree": 2}})
        assert v.genus == 0
        assert (s.rank, s.degree) == (1, 2)

    def test_explicit_route(self):
        v, _ = parse_problem({
            "variety": {"dim": 2, "h_top": 4, "c1_dot_h": 0},
            "sheaf": {"rank": 1, "degree": 4},
        })
        assert v.genus == 3
        assert v.name == "custom"

    def test_hilbert_fields(self):
        _, s = parse_problem({
            "variety": {"name": "quartic-K3"},
            "sheaf": {"rank": 1, "degree": 0, "hilbert": ["2", "0", "2"], "regularity": 0},
        })
        assert s.hilbert is not None and len(s.hilbert) == 3
        assert s.regularity == 0

    def test_catalog_name_with_wrong_numbers(self):
        with pytest.raises(InconsistentInputError, match="disagrees"):
            parse_problem({
                "variety": {"name": "P2", "dim": 2, "h_top": 2, "c1_dot_h": 4},
                "sheaf": {"rank": 1, "degree": 2},
            })

    def test_missing_blocks(self):
        with pytest.raises(UsageError):
            parse_problem({"variety": {"name": "P2"}})

    def test_incomplete_variety(self):
        with pytest.raises(UsageError):
            parse_problem({"variety": {"dim": 2}, "sheaf": {"rank": 1, "degree": 0}})
