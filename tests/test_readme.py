"""README's examples run as written, so its library API cannot drift."""

import json
import re
from pathlib import Path

from tailsgd.harness import parse_config, parse_sweep_config

README = Path(__file__).resolve().parents[1] / "README.md"


def _blocks(language):
    return re.findall(rf"^```{language}\n(.*?)^```$", README.read_text(), re.M | re.S)


def test_readme_python_examples_run_in_order(capsys):
    # the second example reads the first's spec, moments and gamma
    blocks = _blocks("python")
    assert len(blocks) == 2
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    printed = capsys.readouterr().out.split()
    assert len(printed) == 4 and all(float(word) >= 0.0 for word in printed[:3])


def test_readme_configs_parse():
    experiment, sweep_doc = _blocks("json")
    cfg = parse_config(experiment)
    assert (cfg.distribution.d, cfg.T, cfg.replicates) == (3, 10000, 200)
    sweep_cfg = parse_sweep_config(sweep_doc)
    assert sweep_cfg.d == tuple(json.loads(sweep_doc)["d"])
