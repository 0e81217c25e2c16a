"""Record every src/repro function a process calls (REACH_OUT=dir enables).

Put this directory on ``PYTHONPATH`` after ``src`` and set ``REACH_OUT``
(output directory) and ``REACH_ROOT`` (absolute path of ``src/repro``):
each process then writes ``reach-<pid>.tsv``, one ``path<TAB>qualname``
line per function it called.  ``check.py`` compares the union with the
allowlist in ``.claude/skills/verify/SKILL.md``.
"""
import atexit
import os
import sys
import threading

_OUT = os.environ.get("REACH_OUT")
_ROOT = os.environ.get("REACH_ROOT", "")  # absolute path of .../src/repro
_seen = set()


def _hook(frame, event, arg):
    if event == "call":
        code = frame.f_code
        if code.co_filename.startswith(_ROOT):
            _seen.add((code.co_filename, code.co_qualname))


def _dump():
    with open(os.path.join(_OUT, f"reach-{os.getpid()}.tsv"), "w") as f:
        f.writelines(f"{name}\t{qual}\n" for name, qual in sorted(_seen))


if _OUT and _ROOT:
    os.makedirs(_OUT, exist_ok=True)
    sys.setprofile(_hook)
    threading.setprofile(_hook)
    atexit.register(_dump)
    import multiprocessing.process as _mp

    _bootstrap = _mp.BaseProcess._bootstrap

    def _bootstrap_and_dump(self, *args, **kwargs):
        try:
            return _bootstrap(self, *args, **kwargs)
        finally:
            _dump()  # children leave through os._exit, past atexit

    _mp.BaseProcess._bootstrap = _bootstrap_and_dump
