#!/usr/bin/env python3
"""Checks that the Clark lane kernel stays vectorized on the x86 backends.

    python3 tools/check_kernels.py build/libstatpipe.a

Disassembles the library (objdump -dr) and finds
statpipe::stats::simd::<backend>::clark_max_lanes for the sse42, avx2 and
avx512 backends (stats/simd_<backend>.cpp).  Each must

  * call nothing: a libm or helper call (erfc, exp, a sqrt errno fallback)
    is opaque to gcc's vectorizer, so the lane loop stays scalar; a tail
    call (a jmp with a PLT relocation) counts as a call;
  * contain a packed divide (divpd / vdivpd): the loop divides twice per
    lane (alpha and the Gaussian core's t), so a vectorized body has one.

Any "[clone ...]" copy of the function is checked with it.

Exit status: 0 when every backend passes; 1 with one finding per line
otherwise (a missing symbol is a finding); 2 when objdump cannot read the
file.  tools/test_check_kernels.py pins this on canned disassembly.
"""
import re
import subprocess
import sys

BACKENDS = ("sse42", "avx2", "avx512")
KERNEL = "clark_max_lanes"

HEADER_RE = re.compile(r"^[0-9a-f]+ <(.+)>:$")
CALL_RE = re.compile(r"\s(call|callq)\s")
TAIL_RE = re.compile(r"\s(jmp|jmpq)\s")
RELOC_RE = re.compile(r"R_X86_64_(PLT32|PC32|GOTPCRELX|REX_GOTPCRELX)\s+(.+?)"
                      r"(?:[-+]0x[0-9a-f]+)?$")
PACKED_DIV_RE = re.compile(r"\sv?divpd\s")


def disassemble(path):
    r = subprocess.run(["objdump", "-dr", "--no-show-raw-insn", "-C", path],
                       capture_output=True, text=True)
    if r.returncode != 0:
        raise OSError(r.stderr.strip() or f"objdump failed on {path}")
    return r.stdout


def functions(text):
    """{symbol: [lines]} for every function block of objdump -d output."""
    out, name = {}, None
    for line in text.splitlines():
        m = HEADER_RE.match(line)
        if m:
            name = m.group(1)
            out.setdefault(name, [])
        elif not line.strip():
            name = None
        elif name is not None:
            out[name].append(line)
    return out


def kernel_lines(funcs, backend):
    prefix = f"statpipe::stats::simd::{backend}::{KERNEL}("
    lines, found = [], False
    for name, body in funcs.items():
        if name.startswith(prefix):
            found = True
            lines += body
    return lines if found else None


def calls(lines):
    """Callee names (from the relocation) of every call and tail call."""
    found = []
    for i, line in enumerate(lines):
        is_call = CALL_RE.search(line) is not None
        tail = TAIL_RE.search(line) is not None
        if not (is_call or tail):
            continue
        reloc = RELOC_RE.search(lines[i + 1]) if i + 1 < len(lines) else None
        if tail and reloc is None:
            continue  # a jump inside the function
        found.append(reloc.group(2) if reloc else line.split("\t")[-1].strip())
    return found


def check(text):
    """Findings (one string each) for the disassembly text."""
    funcs = functions(text)
    findings = []
    for backend in BACKENDS:
        lines = kernel_lines(funcs, backend)
        where = f"{backend}::{KERNEL}"
        if lines is None:
            findings.append(f"{where}: symbol not found")
            continue
        for callee in calls(lines):
            findings.append(f"{where}: calls {callee}")
        if not any(PACKED_DIV_RE.search(line) for line in lines):
            findings.append(f"{where}: no packed divide (divpd/vdivpd); "
                            "the lane loop is not vectorized")
    return findings


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    try:
        text = disassemble(argv[1])
    except OSError as e:
        print(f"check_kernels: {e}", file=sys.stderr)
        return 2
    findings = check(text)
    for f in findings:
        print(f)
    if not findings:
        print(f"check_kernels: {KERNEL} vectorized with no calls on "
              + ", ".join(BACKENDS))
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
