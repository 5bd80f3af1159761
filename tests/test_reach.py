"""``tools/reach.py`` on a fixture package: forks, threads and lost hooks.

The probe must see a call made only in a forked child that leaves through
``os._exit`` (as pool and shard workers do) and one made only in a thread,
report exactly the function nothing calls, and flag a process whose profile
hook disappeared before it exited.
"""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("reach", ROOT / "tools" / "reach.py")
reach = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reach)

MODULE = '''"""Four functions, each reached a different way or not at all."""


def in_parent():
    return 1


def in_child():
    return 2


def in_thread():
    return 3


def never():
    return 4
'''

DRIVER = """
import os
import sys
import threading

from pkg import mod

mod.in_parent()
thread = threading.Thread(target=mod.in_thread)
thread.start()
thread.join()
pid = os.fork()
if pid == 0:
    mod.in_child()
    if "--drop-hook" in sys.argv:
        sys.setprofile(None)
    os._exit(0)
os.waitpid(pid, 0)
"""


def _fixture(tmp_path: Path) -> Path:
    package = tmp_path.resolve() / "pkg"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "mod.py").write_text(MODULE)
    (tmp_path / "drive.py").write_text(DRIVER)
    return package


def test_reports_exactly_the_function_nothing_calls(tmp_path):
    package = _fixture(tmp_path)
    hits, lost = reach.probe([("drive.py",)], package, cwd=tmp_path)
    total, reached, found = reach.unreached(package, hits)
    assert [(name, body, tag) for _, _, name, body, tag in found] == [("never", 1, "")]
    assert (total, reached) == (4, 3)
    assert lost == []


def test_tier1_hits_tag_what_the_surface_missed(tmp_path):
    package = _fixture(tmp_path)
    hits, _ = reach.probe([("drive.py",)], package, cwd=tmp_path)
    never = (str(package / "mod.py"), MODULE.splitlines().index("def never():") + 1)
    _, _, found = reach.unreached(package, hits, tier1={never})
    assert [tag for *_, tag in found] == ["test-only"]
    _, _, found = reach.unreached(package, hits, tier1=set())
    assert [tag for *_, tag in found] == ["nothing"]


def test_a_process_that_lost_its_hook_is_flagged(tmp_path):
    package = _fixture(tmp_path)
    hits, lost = reach.probe([("drive.py", "--drop-hook")], package, cwd=tmp_path)
    assert len(lost) == 1 and lost[0].startswith("lost hook: pid ")
    # The child's calls before it lost the hook are still on record.
    assert len(reach.unreached(package, hits)[2]) == 1
