#!/usr/bin/env python3
"""Unit tests for tools/check_kernels.py (stdlib unittest only).

Feeds check_kernels.check() canned objdump -dr disassembly and pins its
contract: a vectorized kernel with no calls passes; a libm call (with its
relocation), a tail call, a scalar-only divide, a missing backend symbol
and a call in a cold clone are each reported.  The CI Release leg runs the
tool itself on the real library.

Run:  python3 tools/test_check_kernels.py
"""
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.dont_write_bytecode = True
import check_kernels  # noqa: E402

SIG = ("(double const*, double const*, double const*, double const*, "
       "double const*, unsigned long, double*, double*, double*, double*, "
       "double*)")


def kernel(backend, body):
    name = f"statpipe::stats::simd::{backend}::clark_max_lanes{SIG}"
    lines = [f"0000000000000930 <{name}>:"]
    lines += [f"     {0x930 + 4 * i:x}:\t{insn}" for i, insn in enumerate(body)]
    return "\n".join(lines) + "\n\n"


VECTOR = ["vmovupd (%rdi,%rax,1),%zmm1", "vdivpd %zmm3,%zmm2,%zmm4",
          "vsqrtpd %zmm4,%zmm5", "vmovupd %zmm5,(%r8,%rax,1)", "ret"]


def library(**bodies):
    text = "\nlibstatpipe.a(simd_avx2.cpp.o):     file format elf64-x86-64\n\n"
    text += "Disassembly of section .text:\n\n"
    for backend in ("sse42", "avx2", "avx512"):
        if bodies.get(backend, VECTOR) is not None:
            text += kernel(backend, bodies.get(backend, VECTOR))
    return text


class CheckKernelsTest(unittest.TestCase):
    def test_vectorized_kernels_pass(self):
        self.assertEqual(check_kernels.check(library()), [])

    def test_libm_call_is_reported_with_its_callee(self):
        body = VECTOR[:2] + [
            "call   16a <statpipe::stats::simd::avx2::clark_max_lanes" + SIG
            + "+0x16a>",
            "\t\t\t166: R_X86_64_PLT32\terfc-0x4"] + VECTOR[2:]
        findings = check_kernels.check(library(avx2=body))
        self.assertEqual(findings, ["avx2::clark_max_lanes: calls erfc"])

    def test_tail_call_counts_as_a_call(self):
        body = VECTOR[:-1] + ["jmp    0 <exp>", "\t\t\t9a: R_X86_64_PLT32\texp-0x4"]
        findings = check_kernels.check(library(avx512=body))
        self.assertEqual(findings, ["avx512::clark_max_lanes: calls exp"])

    def test_local_jump_is_not_a_call(self):
        body = ["jmp    940 <x+0x10>"] + VECTOR
        self.assertEqual(check_kernels.check(library(sse42=body)), [])

    def test_scalar_only_divides_fail(self):
        body = ["movsd  (%rdi,%rax,8),%xmm0", "divsd  %xmm1,%xmm0",
                "sqrtsd %xmm0,%xmm0", "ret"]
        findings = check_kernels.check(library(sse42=body))
        self.assertEqual(len(findings), 1)
        self.assertIn("sse42::clark_max_lanes: no packed divide", findings[0])

    def test_missing_symbol_fails(self):
        findings = check_kernels.check(library(avx512=None))
        self.assertEqual(findings,
                         ["avx512::clark_max_lanes: symbol not found"])

    def test_cold_clone_is_checked_with_the_function(self):
        cold = (f"0000000000001000 <statpipe::stats::simd::avx2::"
                f"clark_max_lanes{SIG} [clone .cold]>:\n"
                "    1000:\tcall   1005 <y>\n"
                "\t\t\t1001: R_X86_64_PLT32\tsqrt-0x4\n\n")
        findings = check_kernels.check(library() + cold)
        self.assertEqual(findings, ["avx2::clark_max_lanes: calls sqrt"])


if __name__ == "__main__":
    unittest.main()
