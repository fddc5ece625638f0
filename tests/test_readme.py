"""The README's reference sections agree with the code they describe."""

import re
import shlex
from pathlib import Path

from deepdict.cli import main
from deepdict.harness import CONFIG_KEYS

README = Path(__file__).resolve().parents[1] / "README.md"


def test_config_key_list_matches_config_keys():
    text = README.read_text()
    section = text.split("### Config file keys", 1)[1].split("\n#", 1)[0]
    listed = re.search(r"`([a-z0-9_ \n]+)`", section).group(1).split()
    assert listed == list(CONFIG_KEYS)


def test_library_use_example_runs(capsys):
    section = README.read_text().split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md", "exec"), {})
    k, accuracy = capsys.readouterr().out.splitlines()[0].split()
    assert int(k) >= 1 and 0 <= float(accuracy) <= 1


def _quickstart_commands() -> list[str]:
    """The quickstart's shell commands in order, continuation lines joined."""
    section = README.read_text().split("## Quickstart", 1)[1].split("\n## ", 1)[0]
    script = "\n".join(re.findall(r"```sh\n(.*?)```", section, re.S))
    return [" ".join(line.split()) for line in script.replace("\\\n", " ").splitlines()]


def test_quickstart_reads_only_files_it_wrote():
    commands = _quickstart_commands()
    assert any(c.startswith("deepdict eval ") for c in commands)
    written = set()
    for command in commands:
        for path in re.findall(r"--(?:data|model) (\S+)", command):
            assert path.rstrip("/") in written, f"{command!r} reads {path}, which nothing wrote"
        written.update(p.rstrip("/") for p in re.findall(r"(?:--out|>) (\S+)", command))


def test_quickstart_eval_prints_the_stated_figure(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for command in _quickstart_commands():
        split = re.fullmatch(r"awk 'NR % 4 (==|!=) 0' (\S+) > (\S+)", command)
        if split:
            keep, source, target = split.groups()
            lines = Path(source).read_text().splitlines(keepends=True)
            held_out = keep == "=="
            Path(target).write_text(
                "".join(line for n, line in enumerate(lines, 1) if (n % 4 == 0) == held_out)
            )
        elif re.match(r"deepdict (synth|train|eval) ", command):
            assert main(shlex.split(command)[1:]) == 0, command
    out = capsys.readouterr().out
    k, accuracy = re.search(r"^selected k=(\d+) accuracy=(\S+)$", out, re.M).groups()
    stated = re.search(r"here `k=(\d+)`, accuracy ([\d.]+)", README.read_text()).groups()
    assert (k, f"{float(accuracy):.3f}") == stated
