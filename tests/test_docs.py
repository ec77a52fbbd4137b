"""The README's config reference and library recipe agree with the code."""

from pathlib import Path

from lexinduct import InducedDictionary, PipelineConfig, read_config, write_config
from lexinduct.pipeline import STAGE_VERSIONS

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def block_after(marker: str, language: str) -> str:
    """The first fenced `language` block after the line that starts with
    `marker`."""
    rest = README[README.index("\n" + marker) :]
    start = rest.index(f"```{language}\n") + len(language) + 4
    return rest[start : rest.index("```", start)]


def test_config_reference_lists_the_defaults(tmp_path):
    reference = block_after("## Config reference", "ini")
    path = tmp_path / "reference.cfg"
    path.write_text(reference, encoding="utf-8")
    assert read_config(path) == PipelineConfig()
    # Every key, in the order the config file lists them.
    write_config(PipelineConfig(), tmp_path / "default.cfg")
    default = (tmp_path / "default.cfg").read_text(encoding="utf-8")
    documented = [line.rstrip() for line in reference.splitlines() if line.strip() and line[0] != ";"]
    assert documented == [line.rstrip() for line in default.splitlines() if line.strip()]


def test_stage_table_lists_the_stage_kinds():
    rest = README[README.index("\n## Pipeline stages and artifacts") :]
    table = rest[rest.index("\n| stage |") :].split("\n\n", 1)[0]
    rows = [line for line in table.splitlines() if line.startswith("| `")]
    kinds = [row.split("`")[1].partition(":")[0] for row in rows]
    assert kinds == list(STAGE_VERSIONS)


def test_link_file_recipe(tmp_path, monkeypatch):
    recipe = block_after("A link file made elsewhere", "python")
    (tmp_path / "source.txt").write_text("the dog\nthe cat\n", encoding="utf-8")
    (tmp_path / "target.txt").write_text("el perro\nel gato\n", encoding="utf-8")
    (tmp_path / "links.txt").write_text("0-0 1-1\n0-0 1-1\n", encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    exec(compile(recipe, "README.md", "exec"), {})
    assert InducedDictionary.read(tmp_path / "dictionary.tsv").entries == {
        "the": (("el", 1.0),), "dog": (("perro", 1.0),), "cat": (("gato", 1.0),),
    }
