"""Documentation accuracy guards.

The README's quickstart must actually run, and the documented CLI
entry points must exist — docs that drift from the code are worse
than no docs.
"""

import re
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]


def python_blocks(markdown: str) -> list[str]:
    return re.findall(r"```python\n(.*?)```", markdown, flags=re.DOTALL)


class TestReadme:
    def test_quickstart_snippet_runs(self, capsys):
        readme = (REPO_ROOT / "README.md").read_text()
        blocks = python_blocks(readme)
        assert blocks, "README must contain a python quickstart"
        exec(compile(blocks[0], "<README quickstart>", "exec"), {})
        out = capsys.readouterr().out
        assert "optimistic" in out

    def test_documented_commands_exist(self):
        import tomllib

        pyproject = tomllib.loads((REPO_ROOT / "pyproject.toml").read_text())
        scripts = pyproject["project"]["scripts"]
        readme = (REPO_ROOT / "README.md").read_text()
        for command in (
            "repro-analyze",
            "repro-fleet",
            "repro-bench",
            "repro-reproduce",
        ):
            assert command in scripts, command
            assert command in readme, command
            # And the target is importable with a callable main().
            module_path, _, attr = scripts[command].partition(":")
            module = __import__(module_path, fromlist=[attr])
            assert callable(getattr(module, attr))

    def test_documented_files_exist(self):
        readme = (REPO_ROOT / "README.md").read_text()
        for relative in re.findall(r"\]\(([\w/]+\.md)\)", readme):
            assert (REPO_ROOT / relative).exists(), relative


class TestExamplesDocumented:
    def test_every_example_listed_in_examples_readme(self):
        listing = (REPO_ROOT / "examples" / "README.md").read_text()
        for script in sorted((REPO_ROOT / "examples").glob("*.py")):
            assert script.name in listing, script.name

    def test_design_experiment_index_covers_benchmarks(self):
        """Every figure/table benchmark file appears in DESIGN.md or
        EXPERIMENTS.md so the per-experiment index stays complete."""
        design = (REPO_ROOT / "DESIGN.md").read_text()
        experiments = (REPO_ROOT / "EXPERIMENTS.md").read_text()
        combined = design + experiments
        for bench in sorted((REPO_ROOT / "benchmarks").glob("test_*.py")):
            stem = bench.name
            assert stem in combined or stem.replace("test_", "") in combined, stem
