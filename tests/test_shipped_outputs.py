"""Byte gate: the shipped configs reproduce their pinned outputs.

Each of the 8 scenario files under configs/ is run in process, and every
file it writes is pinned by sha256 and its summary line by text.  Runs
are deterministic, so any difference is a change of behaviour.  A change
meant to alter output bytes updates the pins here and records the old and
new hashes in CHANGES.md; any other change leaves them as they are.
"""

import hashlib
import json
from pathlib import Path

from oncocontrol.cli import main

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

PINNED_SHA256 = {
    "competition/competition.csv": (
        "099db5b9b20c7ad240e1b2e4b76680aa5e086969dd9cb89b48a4383b0f2ee8da"
    ),
    "competition/competition.json": (
        "72e93b3010b6fd2162eed68bf17d645acf2314cc05ca2fe0a7939658acdff6c6"
    ),
    "constant_control/constant_control.csv": (
        "55c3149928aca5f3b68823be9919a32e0609e66e103e3c201476a7e77a6ebb63"
    ),
    "constant_control/constant_control.json": (
        "52e406f94b412d46e73c8e5f078360163a1463d5127ded2fb6a2a204a3e89d0a"
    ),
    "constant_control/constant_control_trajectory.csv": (
        "886fd2cd66c7e21acd0579b5c4a85208374c4a9e41c8b7fec1a269d366e3be50"
    ),
    "dose_report/dose_report.csv": (
        "d8afcc99f866fb4116455913c7ea5f1d546d09cce286b42e06ad533149cf11b1"
    ),
    "dose_report/dose_report.json": (
        "dfabc0d930658f944e57fabc76e4e741d90db2f4533aded169288ec2eb0a9270"
    ),
    "equilibria/equilibria.csv": (
        "9ad8898a75716b48b4e50fe5ac5b7159f37ab45cf43e84240cbdefa354471b12"
    ),
    "equilibria/equilibria.json": (
        "fcd7fa58c30a410804ddcafa16e3f2e5996401d3ae0dca151a003ee595286491"
    ),
    "fractionated/fractionated.csv": (
        "2e7872eeeb726a21342dd3169a8a8a11cc2f1706e80ec0588b898a17af70f755"
    ),
    "fractionated/fractionated.json": (
        "4e6bea7cb6eb32ae800581692dcb9ba1098e82fd8c32c20013e2fa6a2573ac5c"
    ),
    "growth/growth.csv": (
        "dec5f43d23afc77ba59f4728e976775168090a48f98a6f382d4d7aeef13f6902"
    ),
    "growth/growth.json": (
        "fa0505150ed6c98618caa0cafae4c29da1b1547f9a77200a0a339f0d2b2ebffc"
    ),
    "ocp/ocp.json": (
        "3aca5babcd68cd37a8ca8ba50252bcd09c3d47b7e053976af3ce1f1b58e9db26"
    ),
    "ocp/ocp_direct.csv": (
        "0b9f867ce9a6b3e1ba0a910ea39b570425830903fd440ae05e47ce7bcabb946e"
    ),
    "ocp/ocp_indirect.csv": (
        "42f110805f23252149c7c8a9d6b1a0f4df6bb136a34340ee5f1f39a7ad43c990"
    ),
    "phase_portrait/phase_portrait.csv": (
        "da0fdb6c3c51c5236ef96267862f20d65cf274e3c72faad5fb2ded7be2e38c09"
    ),
    "phase_portrait/phase_portrait.json": (
        "5328a6648168b522842a889b21899b5ef179cf203473b0f91a0e7fd3ed8fb165"
    ),
}

PINNED_STDOUT = {
    "competition": "competition: competition ended at healthy 19.2062, cancer 699979",
    "constant_control": "constant-control: u=0.7, 4 points, stable sinks: healthy_only",
    "dose_report": "dose-report: 3 scenarios, 303 rows",
    "equilibria": "equilibria: 3 points, stable sinks: cancer_only",
    "fractionated": "fractionated: tumour eradicated, final cancer 0 cells, dose 128 Gy",
    "growth": "growth: t_end=60 exponential=5.08057e+15, gompertz=8.43145e+08, verhulst=1.5e+09",
    "ocp": "ocp: indirect J=2.75076e+06, direct J=2.75076e+06",
    "phase_portrait": "phase-portrait: 16 trajectories written",
}


def test_shipped_configs_reproduce_pinned_bytes(tmp_path, capsys):
    stdout = {}
    for path in sorted(CONFIGS.glob("*.json")):
        kind = json.loads(path.read_text())["kind"]
        out = tmp_path / path.stem
        assert main([kind, "--config", str(path), "--out", str(out)]) == 0, path.name
        stdout[path.stem] = capsys.readouterr().out.rstrip("\n")
    written = {
        p.relative_to(tmp_path).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(tmp_path.rglob("*"))
        if p.is_file()
    }
    assert written == PINNED_SHA256
    assert stdout == PINNED_STDOUT


# The coexistence system (per-population capacities, no interaction) is
# used by no shipped config, so three in-test scenarios pin its bytes: a
# takeover run, the equilibria at equal capacities (both boundary points
# are non-hyperbolic, so the nonlinear probe integrates the field), and a
# 3x3 phase portrait.
COEXISTENCE_DYNAMICS = {
    "healthy_rate": 3.0,
    "cancer_rate": 0.6,
    "shared_capacity": 7.0e5,
    "healthy_capacity": 5.0e5,
    "cancer_capacity": 7.0e5,
}

COEXISTENCE_CONFIGS = {
    "competition": {
        "dynamics": COEXISTENCE_DYNAMICS,
        "system": "coexistence",
        "initial": {"healthy": 4.0e5, "cancer": 5.0e4},
        "t_end": 200.0,
        "samples": 201,
    },
    "equilibria": {
        "dynamics": {**COEXISTENCE_DYNAMICS, "healthy_capacity": 7.0e5},
        "variant": "coexistence",
        "probe_nonhyperbolic": True,
    },
    "phase-portrait": {
        "dynamics": COEXISTENCE_DYNAMICS,
        "system": "coexistence",
        "grid": {
            "healthy": {"min": 1.0e5, "max": 6.0e5, "count": 3},
            "cancer": {"min": 1.0e5, "max": 6.0e5, "count": 3},
        },
        "t_end": 50.0,
        "samples": 51,
    },
}

COEXISTENCE_SHA256 = {
    "competition/competition.csv": (
        "f2e452f0b820cda08f7868f5f66add87ecb31d103abff0e98a818ece3094d1b3"
    ),
    "competition/competition.json": (
        "a01234dfd66dcff72f50e348cfb382fdb87961a29dba34eca8dfd8a28aac74d4"
    ),
    "equilibria/equilibria.csv": (
        "668892c3bb0140e17360bdcdfe4fccdc87039d27a2a718bd4676fe58277a2212"
    ),
    "equilibria/equilibria.json": (
        "8cd8a83e1b495f2a6966de512e91d152ede6bd50e3b1e017c296ebbe930833bc"
    ),
    "phase-portrait/phase_portrait.csv": (
        "0af2fe2ddf2774c404eed970cd4ec36cfd0b8b68a2b2cde0b0bd6ff712823875"
    ),
    "phase-portrait/phase_portrait.json": (
        "4ba4f58a3d3c40aa98641af158f913109693fff52e3a633c1f8131738b134794"
    ),
}

COEXISTENCE_STDOUT = {
    "competition": "competition: coexistence ended at healthy 5.49803e-91, cancer 700000",
    "equilibria": "equilibria: 3 points, stable sinks: none",
    "phase-portrait": "phase-portrait: 9 trajectories written",
}


def test_coexistence_runs_reproduce_pinned_bytes(tmp_path, capsys):
    stdout = {}
    for kind, parameters in COEXISTENCE_CONFIGS.items():
        path = tmp_path / f"{kind}.json"
        path.write_text(json.dumps({"kind": kind, "parameters": parameters}))
        out = tmp_path / "out" / kind
        assert main([kind, "--config", str(path), "--out", str(out)]) == 0, kind
        stdout[kind] = capsys.readouterr().out.rstrip("\n")
    written = {
        p.relative_to(tmp_path / "out").as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted((tmp_path / "out").rglob("*"))
        if p.is_file()
    }
    assert written == COEXISTENCE_SHA256
    assert stdout == COEXISTENCE_STDOUT
