#!/usr/bin/env python3
"""Checks that the canonical-max and walk lane kernels stay vectorized on x86.

    python3 tools/check_kernels.py build/libstatpipe.a

Disassembles the library (objdump -dr) and finds, for the sse42, avx2 and
avx512 backends (stats/simd_<backend>.cpp), the kernels under
statpipe::stats::simd::<backend>::

  * canonical_max_lanes, the canonical max under the lane SSTA fold;
  * sta_block_walk_w<kW> for kW in 0 (run-time width), 1 and each power of
    two from 8 to the backend's max_width (16 sse42, 32 avx2, 64 avx512):
    the block walk's width instantiations;
  * sta_block_walk, the walk's width dispatch.

Each kernel and walk instantiation must

  * call nothing: a libm or helper call (erfc, exp, a sqrt errno fallback,
    an out-of-line lane helper, memset) is opaque to gcc's vectorizer, so
    the lane loop around it stays scalar; a tail call (a jmp with a PLT
    relocation) counts as a call;
  * contain a packed divide (divpd / vdivpd): the canonical-max loop
    divides four times per lane, the walk's domain check and pow core once
    each, so a vectorized body has one.  The one-lane walk (kW = 1) is scalar by
    construction and is exempt.

A walk instantiation wider than the backend's max_width is a finding: no
block that wide reaches the walk, so the code could never run.  The
dispatch may only tail-call its own width instantiations.  A call to
__stack_chk_fail is not a finding: compilers that enable the stack
protector by default add it on the exit path of functions with local
arrays, outside every loop.  Any "[clone ...]" copy of a function is
checked with it.

Exit status: 0 when every backend passes; 1 with one finding per line
otherwise (a missing symbol is a finding); 2 when objdump cannot read the
file.  tools/test_check_kernels.py pins this on canned disassembly.
"""
import re
import subprocess
import sys

BACKENDS = ("sse42", "avx2", "avx512")
CMAX = "canonical_max_lanes"
WALK = "sta_block_walk"
# Each backend's walk widths: 0, 1 and the powers of two up to its
# max_width (STATPIPE_SIMD_MAX_WIDTH in src/stats/simd_<backend>.cpp).
WALK_WIDTHS = {"sse42": (0, 1, 8, 16), "avx2": (0, 1, 8, 16, 32),
               "avx512": (0, 1, 8, 16, 32, 64)}
SCALAR_WIDTHS = (1,)
IGNORED_CALLEES = ("__stack_chk_fail",)

HEADER_RE = re.compile(r"^[0-9a-f]+ <(.+)>:$")
CALL_RE = re.compile(r"\s(call|callq)\s")
TAIL_RE = re.compile(r"\s(jmp|jmpq)\s")
RELOC_RE = re.compile(r"R_X86_64_(PLT32|PC32|GOTPCRELX|REX_GOTPCRELX)\s+(.+?)"
                      r"(?:[-+]0x[0-9a-f]+)?$")
PACKED_DIV_RE = re.compile(r"\sv?divpd\s")
# A kernel symbol, demangled; a template instantiation's name starts with
# its return type.
KERNEL_RE = re.compile(r"^(?:[\w:]+ )*statpipe::stats::simd::(\w+)::"
                       r"(\w+?)(?:<(\d+)ul>)?\(")


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


def kernels(funcs):
    """{(backend, kernel, width or None): [lines]}, clones folded in."""
    out = {}
    for name, body in funcs.items():
        m = KERNEL_RE.match(name)
        if m:
            width = int(m.group(3)) if m.group(3) is not None else None
            out.setdefault((m.group(1), m.group(2), width), []).extend(body)
    return out


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
        callee = reloc.group(2) if reloc else line.split("\t")[-1].strip()
        if callee not in IGNORED_CALLEES:
            found.append(callee)
    return found


def check_body(where, lines, need_divide):
    findings = [f"{where}: calls {callee}" for callee in calls(lines)]
    if need_divide and not any(PACKED_DIV_RE.search(line) for line in lines):
        findings.append(f"{where}: no packed divide (divpd/vdivpd); "
                        "the lane loop is not vectorized")
    return findings


def check(text):
    """Findings (one string each) for the disassembly text."""
    found = kernels(functions(text))
    findings = []
    for backend in BACKENDS:
        expected = [(CMAX, None, f"{backend}::{CMAX}", True)]
        expected += [(f"{WALK}_w", w, f"{backend}::{WALK}_w<{w}>",
                      w not in SCALAR_WIDTHS) for w in WALK_WIDTHS[backend]]
        for kernel, width, where, need_divide in expected:
            lines = found.get((backend, kernel, width))
            if lines is None:
                findings.append(f"{where}: symbol not found")
            else:
                findings += check_body(where, lines, need_divide)
        cap = max(WALK_WIDTHS[backend])
        findings += [f"{backend}::{WALK}_w<{w}>: wider than the backend's "
                     f"max_width {cap}; it can never run"
                     for b, kernel, w in sorted(found)
                     if b == backend and kernel == f"{WALK}_w" and w > cap]
        where = f"{backend}::{WALK}"
        lines = found.get((backend, WALK, None))
        if lines is None:
            findings.append(f"{where}: symbol not found")
            continue
        own = f"statpipe::stats::simd::{backend}::{WALK}_w<"
        findings += [f"{where}: calls {callee}" for callee in calls(lines)
                     if own not in callee]
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
        widths = "; ".join(f"{b} " + ", ".join(str(w) for w in ws)
                           for b, ws in WALK_WIDTHS.items())
        print(f"check_kernels: {CMAX} and {WALK} (widths {widths}) "
              "vectorized with no calls")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
