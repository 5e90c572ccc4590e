"""Reference checks on the program's outputs, written apart from it.

Nothing here imports tdlite: the verdict references are hand-written or
follow from how a timeline was built, and the SMV check reads the text a
solver received with its own tokenizer.
"""

from __future__ import annotations

import re

# SMV's past operators, plus `P`, the token the program's own printers use
# for "previously"; a past-free hand-off must contain none of them
PAST_TOKENS = frozenset({"Y", "Z", "H", "O", "S", "T", "P"})
# operators and constants a past-free SMV specification may use
SPEC_KEYWORDS = frozenset({"X", "F", "G", "U", "V", "R", "TRUE", "FALSE"})

_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_$#-]*")
_DECL = re.compile(r"^\s*([A-Za-z_][A-Za-z0-9_$#-]*)\s*:\s*boolean\s*;\s*$")


class CheckFailed(Exception):
    """An output of the program disagrees with its reference."""


def check_verdict(got: str, want: str, what: str) -> None:
    if got != want:
        raise CheckFailed(f"{what}: verdict {got}, expected {want}")


def check_smv(text: str) -> dict[str, int]:
    """Check an SMV hand-off: one `MODULE main`, every identifier of the
    single `LTLSPEC` declared in `VAR` and every declared variable used,
    balanced parentheses and no past-operator token.

    Returns the declared-variable and spec-token counts on success.
    """
    lines = text.splitlines()
    if not lines or lines[0].strip() != "MODULE main":
        raise CheckFailed("SMV text does not start with MODULE main")
    specs = [ln for ln in lines if ln.lstrip().startswith("LTLSPEC")]
    if len(specs) != 1:
        raise CheckFailed(f"SMV text has {len(specs)} LTLSPEC lines, expected 1")
    declared: set[str] = set()
    section = None
    for ln in lines[1:]:
        stripped = ln.strip()
        if not stripped:
            continue
        if stripped == "VAR":
            section = "VAR"
            continue
        if stripped.startswith("LTLSPEC"):
            section = None
            continue
        m = _DECL.match(ln)
        if section != "VAR" or m is None:
            raise CheckFailed(f"unexpected SMV line {stripped[:60]!r}")
        if m.group(1) in declared:
            raise CheckFailed(f"variable {m.group(1)} declared twice")
        declared.add(m.group(1))

    spec = specs[0].lstrip()[len("LTLSPEC"):]
    depth = 0
    for ch in spec:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise CheckFailed("unbalanced parentheses: ')' without '('")
    if depth != 0:
        raise CheckFailed(f"unbalanced parentheses: {depth} left open")

    words = _WORD.findall(spec)
    past = PAST_TOKENS.intersection(words)
    if past:
        raise CheckFailed(f"past-operator token(s) {sorted(past)} in a past-free hand-off")
    used = {w for w in words if w not in SPEC_KEYWORDS}
    undeclared = used - declared
    if undeclared:
        raise CheckFailed(f"{len(undeclared)} undeclared identifier(s), e.g. {min(undeclared)}")
    unused = declared - used
    if unused:
        raise CheckFailed(f"{len(unused)} declared but unused variable(s), e.g. {min(unused)}")
    return {"vars": len(declared), "tokens": len(words)}
