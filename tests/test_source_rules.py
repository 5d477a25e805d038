import pathlib
import re

from conftest import heavy_modules_loaded

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "arithdyn"

# A bare except, or one catching Exception or BaseException, hides faults
# that the program's typed errors and exit codes are meant to report.
_EXCEPT = re.compile(r"^\s*except\b([^:]*):")
_BROAD = re.compile(r"\b(Base)?Exception\b")


def _is_broad(line: str) -> bool:
    m = _EXCEPT.match(line)
    return bool(m) and (not m.group(1).strip() or bool(_BROAD.search(m.group(1))))


def test_broad_except_rule_matches_what_it_should():
    broad = ("except:", "  except Exception:", "except BaseException as e:", "except (ValueError, Exception):")
    narrow = ("except ValueError:", "  except (CapExceeded, ArithmeticError) as exc:", "except MyException:")
    assert all(_is_broad(line) for line in broad)
    assert not any(_is_broad(line) for line in narrow)


def test_no_broad_except_in_source():
    files = sorted(SRC.glob("*.py"))
    assert files
    bad = [
        f"{path.name}:{n}: {line.strip()}"
        for path in files
        for n, line in enumerate(path.read_text().splitlines(), 1)
        if _is_broad(line)
    ]
    assert not bad, bad


def test_import_loads_no_heavy_dependency():
    # sympy alone costs about 0.45 s of CPU to import, so sympy, mpmath and
    # scipy are imported inside the functions that need them.
    assert heavy_modules_loaded("import arithdyn") == set()
