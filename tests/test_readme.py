"""The README's CLI walkthrough runs as written, so a flag the CLI drops
cannot stay documented."""

from pathlib import Path
import shlex

from tastecf.cli import main
from tastecf.ingest import write_triplets
from tastecf.synth import skewed_batch

README = Path(__file__).resolve().parent.parent / "README.md"


def _walkthrough_commands() -> list[list[str]]:
    """The argv of each command of the bash block under "CLI walkthrough",
    with continued lines joined and comments dropped."""
    section = README.read_text(encoding="utf-8").split("## CLI walkthrough\n")[1]
    block = section.split("```bash\n")[1].split("```")[0]
    return [argv for line in block.replace("\\\n", " ").splitlines()
            if (argv := shlex.split(line, comments=True))]


def test_readme_walkthrough_runs(tmp_path, monkeypatch):
    batch = skewed_batch(300, 60, 6.0, seed=1)
    monkeypatch.chdir(tmp_path)
    write_triplets(batch, "plays.txt")
    # every user, so that each hidden half has a recommendation to score
    Path("users.txt").write_text("".join(f"{u}\n" for u in batch.user_vocab.ids))
    commands = _walkthrough_commands()
    assert {argv[1] for argv in commands} >= {"ingest", "build", "recommend",
                                              "split", "evaluate"}
    for argv in commands:
        assert argv[0] == "tastecf"
        assert main(argv[1:]) == 0, shlex.join(argv)
