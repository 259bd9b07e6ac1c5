"""Uniform check reports.

Every verification op accumulates named boolean checks with optional
witnesses (a human-readable, deterministic description of the first
violation).  Whether a failed certificate is raised or returned is fixed
per function, never chosen by a flag: a builder such as quotient_data,
hit_action, coend or regular_relhopf raises VerificationFailed carrying
the report when its own certificate fails, so it never hands back
unverified data; a function whose callers read the report, such as the
check_* functions, recover_coalgebra_map and unit_object_algebra, returns
it and does not raise on it.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class Check:
    name: str
    ok: bool
    witness: str | None = None


def _clean(text):
    # reports are line-oriented, so embedded newlines would break parsing
    return " ".join(str(text).split())


class CertReport:
    """Ordered checks with witnesses, assumptions, input hashes, one seed.

    `serialize` renders the report as a line-oriented certificate:

        report <subject>
        seed <integer, or - when no randomness was used>
        input <sha256> <role>
        assume <text>
        check ok <name>
        check FAIL <name>
        witness <text>
        runtime -

    A witness line explains the check directly above it; every failing
    check carries one, `no witness recorded` when none was given.  Text is
    stored as given and has its whitespace runs collapsed to single spaces
    only when serialized; assumptions that then read alike are written
    once, at their first place.  Inputs are identified by the hash of
    their canonical relabeling-invariant serialization rather than by raw
    file bytes (see `report.content_hash`), so comments, whitespace, and
    label order do not change identity.  The runtime field is a fixed
    placeholder: wall-clock time goes to the console, never into the
    report, so repeated runs over the same inputs and seed produce
    byte-identical reports.
    """

    def __init__(self, subject, seed=None):
        self.subject = subject
        self.seed = seed
        self.inputs = []
        self.checks = []
        self.assumptions = []
        self.elapsed = None

    def add(self, name, ok, witness=None):
        self.checks.append(Check(name, bool(ok), witness))
        return ok

    def assume(self, note):
        if note not in self.assumptions:
            self.assumptions.append(note)

    def merge(self, other, prefix=""):
        for c in other.checks:
            self.checks.append(Check(prefix + c.name, c.ok, c.witness))
        for a in other.assumptions:
            self.assume(a)
        return self

    def add_input(self, digest, role):
        self.inputs.append((digest, role))

    @property
    def ok(self):
        return all(c.ok for c in self.checks)

    @property
    def exit_code(self):
        return 0 if self.ok else 1

    def failures(self):
        return [c for c in self.checks if not c.ok]

    def serialize(self):
        lines = [f"report {_clean(self.subject)}",
                 f"seed {'-' if self.seed is None else self.seed}"]
        lines += [f"input {digest} {_clean(role)}"
                  for digest, role in self.inputs]
        lines += [f"assume {note}"
                  for note in dict.fromkeys(map(_clean, self.assumptions))]
        for c in self.checks:
            lines.append(f"check {'ok' if c.ok else 'FAIL'} {_clean(c.name)}")
            if c.witness is not None:
                lines.append(f"witness {_clean(c.witness)}")
            elif not c.ok:
                lines.append("witness no witness recorded")
        lines.append("runtime -")
        return "\n".join(lines) + "\n"

    def __str__(self):
        return self.serialize()


class VerificationFailed(ValueError):
    def __init__(self, report):
        self.report = report
        fails = ", ".join(c.name for c in report.failures()) or "unknown"
        super().__init__(f"{report.subject}: failed checks: {fails}")
