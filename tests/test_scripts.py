"""The desk scripts under scripts/ still run and print what they printed."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import hibi

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"

# SHA-256 of the survey's stdout; it changes only if a number in it changes
SURVEY_SHA256 = "fff3e80a7add80beadd240512d0ce9c8bbb277e4aa0bd7807097adb5e9a20a9d"


def test_spread_survey_prints_the_recorded_table():
    env = dict(os.environ, PYTHONPATH=str(Path(hibi.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "spread_survey.py")],
        capture_output=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == SURVEY_SHA256
