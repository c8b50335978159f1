import re
from pathlib import Path

import nof1twin

README = Path(__file__).resolve().parent.parent / "README.md"


def library_section() -> str:
    text = README.read_text(encoding="utf-8")
    return text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]


def test_every_exported_name_resolves_and_is_documented():
    section = library_section()
    for name in nof1twin.__all__:
        assert hasattr(nof1twin, name), name
        assert re.search(rf"`[^`]*\b{name}\b[^`]*`", section), f"{name} missing from README Library"


def test_readme_library_example_runs(capsys):
    code = re.search(r"```python\n(.*?)```", library_section(), re.S).group(1)
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out.count("\n") == 3
