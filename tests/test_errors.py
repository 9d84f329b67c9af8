"""Every error class of the library has a raise or call site in it."""

import inspect
import re
from pathlib import Path

import hybridfem.errors as errors


def test_every_error_class_is_raised():
    sources = [p.read_text() for p in Path(errors.__file__).parent.glob("*.py") if p.name != "errors.py"]
    classes = [
        cls for _, cls in inspect.getmembers(errors, inspect.isclass)
        if issubclass(cls, errors.HybridFEMError) and cls is not errors.HybridFEMError
    ]
    unused = [cls.__name__ for cls in classes
              if not any(re.search(rf"\b{cls.__name__}\(", text) for text in sources)]
    assert classes and unused == []
