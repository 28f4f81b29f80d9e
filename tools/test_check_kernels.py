#!/usr/bin/env python3
"""Unit tests for tools/check_kernels.py (stdlib unittest only).

Feeds check_kernels.check() canned objdump -dr disassembly and pins its
contract: vectorized kernels with no calls pass; a libm call (with its
relocation), a tail call, a scalar-only divide, a missing backend symbol
and a call in a cold clone are each reported.  For the walk: the dispatch
may tail-call its own width instantiations and nothing else, an
instantiation that calls an out-of-line helper or memset is reported, the
one-lane instantiation needs no packed divide but every other width does,
each width up to the backend's cap must be present and none past it, and
__stack_chk_fail is no finding.  The CI
Release leg runs the tool itself on the real library.

Run:  python3 tools/test_check_kernels.py
"""
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.dont_write_bytecode = True
import check_kernels  # noqa: E402

CMAX_SIG = ("(double*, double*, double*, double*, double const*, "
            "double const*, double const*, double const*, unsigned long)")
WALK_SIG = "(statpipe::stats::simd::StaWalkArgs const&)"


def cmax_name(backend):
    return f"statpipe::stats::simd::{backend}::canonical_max_lanes{CMAX_SIG}"


def walk_name(backend, width=None):
    if width is None:
        return f"statpipe::stats::simd::{backend}::sta_block_walk{WALK_SIG}"
    return (f"unsigned long statpipe::stats::simd::{backend}::"
            f"sta_block_walk_w<{width}ul>{WALK_SIG}")


def function(name, body):
    lines = [f"0000000000000930 <{name}>:"]
    lines += [f"     {0x930 + 4 * i:x}:\t{insn}" for i, insn in enumerate(body)]
    return "\n".join(lines) + "\n\n"


VECTOR = ["vmovupd (%rdi,%rax,1),%zmm1", "vdivpd %zmm3,%zmm2,%zmm4",
          "vsqrtpd %zmm4,%zmm5", "vmovupd %zmm5,(%r8,%rax,1)", "ret"]
SCALAR = ["movsd  (%rdi,%rax,8),%xmm0", "divsd  %xmm1,%xmm0",
          "sqrtsd %xmm0,%xmm0", "ret"]


def dispatch(backend):
    body = []
    for w in check_kernels.WALK_WIDTHS[backend]:
        body += ["jmp    9a <x+0x9a>",
                 f"\t\t\t9b: R_X86_64_PLT32\t{walk_name(backend, w)}-0x4"]
    return body


def library(**bodies):
    """Disassembly of every checked function; bodies[key] overrides one
    (None drops it).  Keys: "<backend>" for the canonical-max kernel,
    "<backend>_walk" for the dispatch, "<backend>_w<N>" for a width."""
    text = "\nlibstatpipe.a(simd_avx2.cpp.o):     file format elf64-x86-64\n\n"
    text += "Disassembly of section .text:\n\n"
    keys = set()
    for backend in check_kernels.BACKENDS:
        funcs = [(backend, cmax_name(backend), VECTOR),
                 (f"{backend}_walk", walk_name(backend), dispatch(backend))]
        for w in check_kernels.WALK_WIDTHS[backend]:
            funcs.append((f"{backend}_w{w}", walk_name(backend, w),
                          SCALAR if w == 1 else VECTOR))
        for key, name, default in funcs:
            keys.add(key)
            body = bodies.get(key, default)
            if body is not None:
                text += function(name, body)
    assert keys.issuperset(bodies), f"unknown keys {set(bodies) - keys}"
    return text


class CheckKernelsTest(unittest.TestCase):
    def test_vectorized_kernels_pass(self):
        self.assertEqual(check_kernels.check(library()), [])

    def test_libm_call_is_reported_with_its_callee(self):
        body = VECTOR[:2] + [
            "call   16a <" + cmax_name("avx2") + "+0x16a>",
            "\t\t\t166: R_X86_64_PLT32\terfc-0x4"] + VECTOR[2:]
        findings = check_kernels.check(library(avx2=body))
        self.assertEqual(findings, ["avx2::canonical_max_lanes: calls erfc"])

    def test_tail_call_counts_as_a_call(self):
        body = VECTOR[:-1] + ["jmp    0 <exp>", "\t\t\t9a: R_X86_64_PLT32\texp-0x4"]
        findings = check_kernels.check(library(avx512=body))
        self.assertEqual(findings, ["avx512::canonical_max_lanes: calls exp"])

    def test_local_jump_is_not_a_call(self):
        body = ["jmp    940 <x+0x10>"] + VECTOR
        self.assertEqual(check_kernels.check(library(sse42=body)), [])

    def test_scalar_only_divides_fail(self):
        findings = check_kernels.check(library(sse42=SCALAR))
        self.assertEqual(len(findings), 1)
        self.assertIn("sse42::canonical_max_lanes: no packed divide", findings[0])

    def test_missing_symbol_fails(self):
        findings = check_kernels.check(library(avx512=None))
        self.assertEqual(findings,
                         ["avx512::canonical_max_lanes: symbol not found"])

    def test_cold_clone_is_checked_with_the_function(self):
        cold = (f"0000000000001000 <{cmax_name('avx2')} [clone .cold]>:\n"
                "    1000:\tcall   1005 <y>\n"
                "\t\t\t1001: R_X86_64_PLT32\tsqrt-0x4\n\n")
        findings = check_kernels.check(library() + cold)
        self.assertEqual(findings, ["avx2::canonical_max_lanes: calls sqrt"])

    def test_walk_calling_an_out_of_line_helper_is_reported(self):
        helper = ("statpipe::stats::simd::avx2::variation_factor_lanes"
                  "(double, double, double const*, double const*, "
                  "unsigned long, double*)")
        body = VECTOR[:2] + ["call   20 <y>",
                             f"\t\t\t1c: R_X86_64_PLT32\t{helper}-0x4"]
        findings = check_kernels.check(library(avx2_w32=body + VECTOR[2:]))
        self.assertEqual(findings,
                         [f"avx2::sta_block_walk_w<32>: calls {helper}"])

    def test_walk_memset_is_reported(self):
        body = ["call   20 <y>", "\t\t\t1c: R_X86_64_PLT32\tmemset-0x4"]
        findings = check_kernels.check(library(sse42_w0=body + VECTOR))
        self.assertEqual(findings, ["sse42::sta_block_walk_w<0>: calls memset"])

    def test_only_the_one_lane_walk_may_be_scalar(self):
        findings = check_kernels.check(library(avx512_w8=SCALAR))
        self.assertEqual(len(findings), 1)
        self.assertIn("avx512::sta_block_walk_w<8>: no packed divide",
                      findings[0])
        self.assertEqual(check_kernels.check(library(avx512_w1=VECTOR)), [])

    def test_missing_walk_width_fails(self):
        findings = check_kernels.check(library(avx2_w16=None))
        self.assertEqual(findings,
                         ["avx2::sta_block_walk_w<16>: symbol not found"])

    def test_dispatch_may_call_only_its_own_widths(self):
        other = walk_name("avx2", 8)
        body = dispatch("avx512") + [
            "jmp    9a <x+0x9a>", f"\t\t\t9b: R_X86_64_PLT32\t{other}-0x4"]
        findings = check_kernels.check(library(avx512_walk=body))
        self.assertEqual(findings, [f"avx512::sta_block_walk: calls {other}"])
        findings = check_kernels.check(library(sse42_walk=None))
        self.assertEqual(findings, ["sse42::sta_block_walk: symbol not found"])

    def test_width_past_the_backend_cap_is_reported(self):
        extra = function(walk_name("sse42", 32), VECTOR)
        findings = check_kernels.check(library() + extra)
        self.assertEqual(findings, [
            "sse42::sta_block_walk_w<32>: wider than the backend's "
            "max_width 16; it can never run"])
        self.assertNotIn(32, check_kernels.WALK_WIDTHS["sse42"])
        self.assertIn(64, check_kernels.WALK_WIDTHS["avx512"])

    def test_stack_protector_call_is_not_a_finding(self):
        body = VECTOR[:-1] + ["call   20 <y>",
                              "\t\t\t1c: R_X86_64_PLT32\t__stack_chk_fail-0x4",
                              "ret"]
        self.assertEqual(check_kernels.check(library(avx2_w32=body)), [])


if __name__ == "__main__":
    unittest.main()
