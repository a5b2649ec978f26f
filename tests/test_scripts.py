"""The desk scripts under scripts/ still run and print what they printed."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import hibi

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"

# SHA-256 of each script's default stdout; it changes only if a number in it changes
SURVEY_SHA256 = "fff3e80a7add80beadd240512d0ce9c8bbb277e4aa0bd7807097adb5e9a20a9d"
TRENDS_SHA256 = "f1fb81cacc44c087496b0414ce3eb6f196f95a0f17046bfb26d128f4e546709e"


def _stdout_sha256(script):
    env = dict(os.environ, PYTHONPATH=str(Path(hibi.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / script)],
        capture_output=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    return hashlib.sha256(proc.stdout).hexdigest()


def test_spread_survey_prints_the_recorded_table():
    assert _stdout_sha256("spread_survey.py") == SURVEY_SHA256


def test_frobenius_trends_prints_the_recorded_tables():
    assert _stdout_sha256("frobenius_trends.py") == TRENDS_SHA256
