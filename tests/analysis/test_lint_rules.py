"""Per-rule fixture corpus: positive, negative, and suppressed snippets."""

import pytest

from repro.analysis.base import all_rules, get_rule
from repro.analysis.runner import lint_source
from repro.common.errors import ValidationError


def findings_for(rule_id, source, path):
    """Run one rule over a snippet at a virtual logical path."""
    findings, suppressed = lint_source(source, path, [get_rule(rule_id)])
    return findings, suppressed


class TestR001FloatEquality:
    PATH = "repro/core/fixture.py"

    @pytest.mark.parametrize(
        "snippet",
        [
            "if x == 0.0:\n    pass\n",
            "if 0.5 != y:\n    pass\n",
            "ok = value == -1.5\n",
            "chain = a < b == 0.0\n",
        ],
    )
    def test_positive(self, snippet):
        findings, _ = findings_for("R001", snippet, self.PATH)
        assert [f.rule_id for f in findings] == ["R001"]

    @pytest.mark.parametrize(
        "snippet",
        [
            "if x == 0:\n    pass\n",  # integer comparison is the point
            "if x <= 0.0:\n    pass\n",  # ordering guards are fine
            "if x == y:\n    pass\n",  # no literal involved
            "label = name == 'x'\n",
        ],
    )
    def test_negative(self, snippet):
        findings, _ = findings_for("R001", snippet, self.PATH)
        assert findings == []

    def test_suppressed(self):
        snippet = "if x == 0.0:  # repro-lint: disable=R001\n    pass\n"
        findings, suppressed = findings_for("R001", snippet, self.PATH)
        assert findings == [] and suppressed == 1

    def test_out_of_scope_layer_not_checked(self):
        findings, _ = findings_for("R001", "x == 0.0\n", "repro/datagen/g.py")
        assert findings == []


class TestR002Layering:
    def test_upward_import_flagged(self):
        findings, _ = findings_for(
            "R002", "from repro.core.archive import TarArchive\n", "repro/data/x.py"
        )
        assert [f.rule_id for f in findings] == ["R002"]
        assert "upward" in findings[0].message

    def test_cross_import_between_siblings_flagged(self):
        findings, _ = findings_for(
            "R002", "import repro.maras.signals\n", "repro/baselines/b.py"
        )
        assert [f.rule_id for f in findings] == ["R002"]
        assert "cross" in findings[0].message

    def test_nested_function_import_flagged(self):
        snippet = "def late():\n    from repro.core import builder\n    return builder\n"
        findings, _ = findings_for("R002", snippet, "repro/data/x.py")
        assert [f.rule_id for f in findings] == ["R002"]

    def test_downward_and_same_layer_imports_clean(self):
        snippet = (
            "from repro.common.errors import ReproError\n"
            "from repro.data.items import ItemVocabulary\n"
            "from repro.mining.rules import RuleId\n"
        )
        findings, _ = findings_for("R002", snippet, "repro/core/x.py")
        assert findings == []

    def test_stdlib_imports_ignored(self):
        findings, _ = findings_for("R002", "import os, sys\n", "repro/data/x.py")
        assert findings == []

    def test_suppressed(self):
        snippet = "import repro.maras.io  # repro-lint: disable=R002\n"
        findings, suppressed = findings_for("R002", snippet, "repro/data/x.py")
        assert findings == [] and suppressed == 1


class TestR003Exceptions:
    PATH = "repro/mining/fixture.py"

    @pytest.mark.parametrize(
        "snippet,needle",
        [
            ("raise ValueError('bad')\n", "ValueError"),
            ("raise RuntimeError\n", "RuntimeError"),
            ("try:\n    x()\nexcept Exception:\n    pass\n", "except Exception"),
            ("try:\n    x()\nexcept:\n    pass\n", "bare except"),
        ],
    )
    def test_positive(self, snippet, needle):
        findings, _ = findings_for("R003", snippet, self.PATH)
        assert [f.rule_id for f in findings] == ["R003"]
        assert needle in findings[0].message

    @pytest.mark.parametrize(
        "snippet",
        [
            "from repro.common.errors import ValidationError\n"
            "raise ValidationError('bad')\n",
            "raise NotImplementedError\n",  # abstract-method idiom
            "try:\n    x()\nexcept ValueError:\n    pass\n",  # narrow catch ok
            "try:\n    x()\nexcept Exception:\n    log()\n    raise\n",  # re-raise ok
            "raise errors.SomeError('dotted raises are not bare builtins')\n",
        ],
    )
    def test_negative(self, snippet):
        findings, _ = findings_for("R003", snippet, self.PATH)
        assert findings == []

    def test_suppressed(self):
        snippet = "raise KeyError('proto')  # repro-lint: disable=R003\n"
        findings, suppressed = findings_for("R003", snippet, self.PATH)
        assert findings == [] and suppressed == 1


class TestR004FrozenTypes:
    PATH = "repro/core/fixture.py"

    @pytest.mark.parametrize(
        "snippet",
        [
            "@dataclass\nclass Loc:\n    x: int\n",
            "@dataclass()\nclass Loc:\n    x: int\n",
            "@dataclass(order=True)\nclass Loc:\n    x: int\n",
            "@dataclasses.dataclass\nclass Loc:\n    x: int\n",
            "@dataclass(frozen=False)\nclass Loc:\n    x: int\n",
        ],
    )
    def test_positive(self, snippet):
        findings, _ = findings_for("R004", snippet, self.PATH)
        assert [f.rule_id for f in findings] == ["R004"]

    @pytest.mark.parametrize(
        "snippet",
        [
            "@dataclass(frozen=True)\nclass Loc:\n    x: int\n",
            "@dataclass(frozen=True, order=True)\nclass Loc:\n    x: int\n",
            "class Plain:\n    pass\n",  # not a dataclass
        ],
    )
    def test_negative(self, snippet):
        findings, _ = findings_for("R004", snippet, self.PATH)
        assert findings == []

    def test_suppressed_on_decorator_line(self):
        snippet = "@dataclass  # repro-lint: disable=R004\nclass Acc:\n    x: int\n"
        findings, suppressed = findings_for("R004", snippet, self.PATH)
        assert findings == [] and suppressed == 1

    def test_out_of_scope_layer_not_checked(self):
        findings, _ = findings_for(
            "R004", "@dataclass\nclass G:\n    x: int\n", "repro/datagen/g.py"
        )
        assert findings == []


class TestR005Clocks:
    PATH = "repro/core/fixture.py"

    @pytest.mark.parametrize(
        "snippet",
        [
            "import time\nstart = time.time()\n",
            "import time\nstart = time.perf_counter()\n",
            "import time\nstart = time.monotonic_ns()\n",
            "from time import perf_counter\n",
        ],
    )
    def test_positive(self, snippet):
        findings, _ = findings_for("R005", snippet, self.PATH)
        assert [f.rule_id for f in findings] == ["R005"]

    @pytest.mark.parametrize(
        "snippet",
        [
            "from repro.common.timing import PhaseTimer\n",
            "import time\nzone = time.tzname\n",  # non-clock attribute access
            "from time import sleep\n",  # not a clock
        ],
    )
    def test_negative(self, snippet):
        findings, _ = findings_for("R005", snippet, self.PATH)
        assert findings == []

    def test_timing_module_is_exempt(self):
        snippet = "import time\nstart = time.perf_counter()\n"
        findings, _ = findings_for("R005", snippet, "repro/common/timing.py")
        assert findings == []

    def test_suppressed(self):
        snippet = "import time\nt = time.time()  # repro-lint: disable=R005\n"
        findings, suppressed = findings_for("R005", snippet, self.PATH)
        assert findings == [] and suppressed == 1


class TestRegistry:
    def test_all_eight_rules_registered(self):
        ids = [rule.rule_id for rule in all_rules()]
        assert ids == [
            "R001",
            "R002",
            "R003",
            "R004",
            "R005",
            "R006",
            "R007",
            "R008",
        ]

    def test_every_rule_has_metadata(self):
        for rule in all_rules():
            assert rule.title, rule.rule_id
            assert rule.fix_hint, rule.rule_id
            assert rule.rationale, rule.rule_id

    def test_select_unknown_rule_raises(self):
        with pytest.raises(ValidationError, match="unknown rule"):
            all_rules(("R999",))

    def test_select_subset(self):
        ids = [rule.rule_id for rule in all_rules(("R003", "R001"))]
        assert ids == ["R001", "R003"]
