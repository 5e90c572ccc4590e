"""Bridges to external LTL solvers.

Formulas are emitted in one of two concrete formats — a one-line infix
syntax for tableau/automata tools, or an SMV module using the universal
model trick, where a counterexample to the negated specification is a
model of the formula.  Over ℤ (flow "z") a solver receives the past-free
translation of the formula it is given, written by
`pastelim.print_past_free` without building it.  Solvers run as
subprocesses under CPU and memory limits; their output is classified into
a verdict by per-profile text patterns.  The built-in ``oracle`` profile shells out to this package's
own command line, so everything works with no external tools installed.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import shlex
import signal
import subprocess
import sys
import tempfile
import threading
import time
import re
from dataclasses import dataclass
from typing import Optional

from .ltl import (
    INFIX_TOKENS,
    LNextF,
    LNextP,
    LNot,
    LSomeF,
    LSomeP,
    Ltl,
    PastOperatorPresent,
    gc_paused,
    print_formula,
)
from .pastelim import SubformulaTable, build_table, print_past_free

DEFAULT_CPU_SECONDS = 600.0
DEFAULT_MEMORY_BYTES = 1 << 30


class ProfileError(ValueError):
    pass


@dataclass(frozen=True, slots=True)
class SolverProfile:
    """How to drive one solver: command template, input format, verdict
    patterns, and resource limits.

    ``command`` is an argv list; ``{input}`` and ``{timeout}`` are
    substituted per run.  ``sat_pattern`` / ``unsat_pattern`` are regular
    expressions applied to the combined output; they must never both match
    a single output.
    """

    name: str
    command: tuple[str, ...]
    input_format: str  # "infix-ltl" | "smv"
    sat_pattern: str
    unsat_pattern: str
    cpu_seconds: float = DEFAULT_CPU_SECONDS
    memory_bytes: int = DEFAULT_MEMORY_BYTES
    max_props: Optional[int] = None

    def __post_init__(self) -> None:
        if self.input_format not in ("infix-ltl", "smv"):
            raise ProfileError(f"unknown input format {self.input_format!r}")
        for field_name, pattern in (("sat-pattern", self.sat_pattern),
                                    ("unsat-pattern", self.unsat_pattern)):
            try:
                re.compile(pattern, re.MULTILINE)
            except (TypeError, re.error) as e:
                raise ProfileError(f"{field_name} {pattern!r} is no regular expression: {e}") from e


@dataclass(frozen=True, slots=True)
class RunResult:
    verdict: str  # SAT | UNSAT | TIMEOUT | FAIL | SKIPPED
    wall_ms: float
    cpu_ms: float
    max_memory_bytes: int
    output_digest: str
    # why there is no SAT/UNSAT verdict: the exception, or how the solver
    # ended; empty when the output was classified
    reason: str = ""


def oracle_profile() -> SolverProfile:
    """The always-available profile running this package's own checker."""
    return SolverProfile(
        name="oracle",
        command=(sys.executable, "-m", "tdlite.cli", "solve", "{input}"),
        input_format="infix-ltl",
        sat_pattern=r"^SAT$",
        unsat_pattern=r"^UNSAT$",
    )


# --- emitters ----------------------------------------------------------------

# the emitters' token tables have no past operators, so printing raises
# PastOperatorPresent at the first one
_INFIX_TOKENS = {k: v for k, v in INFIX_TOKENS.items() if k not in (LNextP, LSomeP)}
_SMV_TOKENS = {"false": "FALSE", "true": "TRUE", LNot: "!", LNextF: "X", LSomeF: "F"}


def emit_infix(f: Ltl, flow: str = "n", table: Optional[SubformulaTable] = None) -> str:
    """The infix input file for f: one fully parenthesized line of the
    past-free formula f, or over ℤ of f's past-free translation."""
    return emit(f, "infix-ltl", flow, table)[0]


def emit_smv(f: Ltl, flow: str = "n", table: Optional[SubformulaTable] = None) -> str:
    """An SMV module encoding satisfiability of f (over ℤ, of its past-free
    translation) as model checking.

    One free boolean variable per proposition and no transition
    constraints, so the module's runs are exactly the words over the
    alphabet; the specification asserts ¬f, hence a counterexample is a
    model of f and "specification is false" means satisfiable.
    """
    return emit(f, "smv", flow, table)[0]


def emit(
    f: Ltl, input_format: str, flow: str = "n", table: Optional[SubformulaTable] = None
) -> tuple[str, set[str]]:
    """The text of a solver's input file for f in the given format, and
    the propositions it names.  Over ℕ f must be past-free and is printed
    as it is; over ℤ the text is that of its past-free translation,
    printed from f's table of past elimination (`table`, when the caller
    has built it)."""
    tokens = _SMV_TOKENS if input_format == "smv" else _INFIX_TOKENS
    if flow == "n":
        expr, props = print_formula(f, tokens)
    else:
        expr, props = print_past_free(f, tokens, table)
    if input_format != "smv":
        return expr + "\n", props
    lines = ["MODULE main"]
    if props:
        lines.append("VAR")
        lines.extend(f"  {p} : boolean;" for p in sorted(props))
    lines.append(f"LTLSPEC !({expr})")
    return "\n".join(lines) + "\n", props


def _input_props(f: Ltl, flow: str) -> tuple[int, SubformulaTable]:
    """How many propositions a solver's input for f names, counted on f's
    table of subformulas without emitting it, and the table: over ℤ past
    elimination's, which the emitter then prints from."""
    with gc_paused():
        table = build_table(f)
    return (table.input_props() if flow == "n" else table.output_props()), table


# --- profile files -----------------------------------------------------------

ENV_PROFILE_FILE = "TDLITE_SOLVERS"


def load_profiles(path: Optional[str] = None) -> dict[str, SolverProfile]:
    """Profiles from a JSON file plus the built-in oracle.

    When no path is given, the ``TDLITE_SOLVERS`` environment variable is
    consulted; if that is unset too, only the oracle is available.
    """
    profiles = {"oracle": oracle_profile()}
    if path is None:
        path = os.environ.get(ENV_PROFILE_FILE)
    if not path:
        return profiles
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as e:
            raise ProfileError(f"{path}: not valid JSON: {e}") from e
    if not isinstance(doc, dict):
        raise ProfileError(f"{path}: the top level must be an object")
    entries = doc.get("profiles", [])
    if not isinstance(entries, list):
        raise ProfileError(f"{path}: profiles must be a list")
    for entry in entries:
        if not isinstance(entry, dict):
            raise ProfileError(f"profile entry must be an object, not {entry!r}")
        if "name" in entry and not isinstance(entry["name"], str):
            raise ProfileError(f"profile name must be a string, not {entry['name']!r}")
        try:
            prof = SolverProfile(
                name=entry["name"],
                command=_command(entry["command"]),
                input_format=entry["input-format"],
                sat_pattern=entry["sat-pattern"],
                unsat_pattern=entry["unsat-pattern"],
                cpu_seconds=_field(entry, "cpu-seconds", float, DEFAULT_CPU_SECONDS, "a number"),
                memory_bytes=_field(entry, "memory-bytes", int, DEFAULT_MEMORY_BYTES,
                                    "an integer"),
                # through str, so that a fraction such as 3.5 is refused, not cut
                max_props=_field(entry, "max-props", lambda v: None if v is None else int(str(v)),
                                 None, "an integer"),
            )
        except KeyError as e:
            raise ProfileError(f"profile entry missing field {e}") from e
        profiles[prof.name] = prof
    return profiles


def _command(value) -> tuple[str, ...]:
    """A profile's argv: a list of strings, or one string split as a
    shell would."""
    if isinstance(value, list) and all(isinstance(a, str) for a in value):
        return tuple(value)
    if isinstance(value, str):
        try:
            return tuple(shlex.split(value))
        except ValueError as e:
            raise ProfileError(f"command {value!r}: {e}") from e
    raise ProfileError(f"command must be a string or a list of strings, not {value!r}")


def _field(entry: dict, name: str, read, default, kind: str):
    """`read(entry[name])`, or `default` when the entry has no such field;
    a value that `read` refuses is a ProfileError naming the field."""
    if name not in entry:
        return default
    try:
        return read(entry[name])
    except (TypeError, ValueError) as e:
        raise ProfileError(f"{name} must be {kind}, not {entry[name]!r}") from e


# --- running -----------------------------------------------------------------

def _limit_preexec(cpu_seconds: float, memory_bytes: int):
    cpu = max(1, int(cpu_seconds + 0.999))

    def apply() -> None:
        resource.setrlimit(resource.RLIMIT_CPU, (cpu, cpu + 1))
        try:
            resource.setrlimit(resource.RLIMIT_AS, (memory_bytes, memory_bytes))
        except (ValueError, OSError):
            pass
        os.setpgrp()

    return apply


def run_solver(
    profile: SolverProfile,
    f: Ltl,
    flow: str = "n",
    cpu_seconds: Optional[float] = None,
    memory_bytes: Optional[int] = None,
    keep_artifacts: bool = False,
) -> RunResult:
    """Emit f for the flow, run the profile's command on it under resource
    limits, and classify the outcome.  A profile's max-props is checked
    before anything is emitted, on f's table of subformulas, which over ℤ
    the emitter then prints from.  Never raises: every mishap is a FAIL (or
    TIMEOUT when a limit was hit), with its cause in the result's
    `reason`."""
    cpu = profile.cpu_seconds if cpu_seconds is None else cpu_seconds
    mem = profile.memory_bytes if memory_bytes is None else memory_bytes

    tmpdir = None
    table = None
    try:
        if profile.max_props is not None:
            count, table = _input_props(f, flow)
            if count > profile.max_props:
                return RunResult("SKIPPED", 0.0, 0.0, 0, "",
                                 f"{count} propositions, max-props {profile.max_props}")
        # the emitters are looked up by name at each call, so a wrapper
        # installed on the module sees every emission
        if profile.input_format == "smv":
            text = emit_smv(f, flow, table)
        else:
            text = emit_infix(f, flow, table)
        del table  # as large as the formula's table; the solver run needs none
        suffix = ".smv" if profile.input_format == "smv" else ".ltl"
        tmpdir = tempfile.mkdtemp(prefix=f"tdlite-{profile.name}-")
        in_path = os.path.join(tmpdir, "input" + suffix)
        out_path = os.path.join(tmpdir, "output.txt")
        with open(in_path, "w", encoding="utf-8") as fh:
            fh.write(text)

        argv = [
            a.replace("{input}", in_path).replace("{timeout}", str(int(cpu)))
            for a in profile.command
        ]
        t0 = time.monotonic()
        with open(out_path, "wb") as out_fh:
            proc = subprocess.Popen(
                argv,
                stdout=out_fh,
                stderr=subprocess.STDOUT,
                stdin=subprocess.DEVNULL,
                preexec_fn=_limit_preexec(cpu, mem),
            )
            # the CPU rlimit cannot stop a sleeping process, so add a
            # generous wall-clock backstop on top of it
            timer = threading.Timer(2 * cpu + 10, _kill_group, (proc,))
            timer.start()
            try:
                _, status, rusage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
                proc.returncode = 0  # reaped by wait4; silence Popen cleanup
        wall_ms = (time.monotonic() - t0) * 1000.0
        cpu_ms = (rusage.ru_utime + rusage.ru_stime) * 1000.0
        max_mem = rusage.ru_maxrss * 1024

        with open(out_path, "rb") as fh:
            raw = fh.read()
        digest = hashlib.sha256(raw).hexdigest()
        out_text = raw.decode("utf-8", errors="replace")

        verdict, reason = _classify(profile, status, cpu_ms, cpu, out_text)
        return RunResult(verdict, wall_ms, cpu_ms, max_mem, digest, reason)
    except Exception as e:
        return RunResult("FAIL", 0.0, 0.0, 0, "", f"{type(e).__name__}: {e}")
    finally:
        if tmpdir is not None and not keep_artifacts:
            for name in os.listdir(tmpdir):
                try:
                    os.unlink(os.path.join(tmpdir, name))
                except OSError:
                    pass
            try:
                os.rmdir(tmpdir)
            except OSError:
                pass


def _kill_group(proc: subprocess.Popen) -> None:
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except (OSError, ProcessLookupError):
        pass


def _classify(
    profile: SolverProfile,
    status: int,
    cpu_ms: float,
    cpu_limit: float,
    output: str,
) -> tuple[str, str]:
    """The verdict, and the reason when it is not SAT or UNSAT."""
    sat = re.search(profile.sat_pattern, output, re.MULTILINE) is not None
    unsat = re.search(profile.unsat_pattern, output, re.MULTILINE) is not None
    if sat != unsat:
        return ("SAT" if sat else "UNSAT"), ""
    ending = _ending(status)
    # no definite answer: a hit resource limit is a timeout, following the
    # convention that running out of memory counts as T/O as well
    if os.WIFSIGNALED(status) and os.WTERMSIG(status) in (
        signal.SIGXCPU,
        signal.SIGKILL,
    ):
        return "TIMEOUT", ending
    if cpu_ms >= cpu_limit * 1000.0:
        return "TIMEOUT", f"{ending}, CPU limit reached"
    if "MemoryError" in output or "bad_alloc" in output or "out of memory" in output:
        return "TIMEOUT", f"{ending}, out of memory"
    matched = "both verdict patterns" if sat else "no verdict pattern"
    return "FAIL", f"{ending}, output matched {matched}"


def _ending(status: int) -> str:
    """How a process ended, from its wait status."""
    if os.WIFSIGNALED(status):
        sig = os.WTERMSIG(status)
        try:
            return f"killed by {signal.Signals(sig).name}"
        except ValueError:
            return f"killed by signal {sig}"
    return f"exit status {os.waitstatus_to_exitcode(status)}"
