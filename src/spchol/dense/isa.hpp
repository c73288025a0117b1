// Instruction-set plumbing shared by the dense kernels (library-internal).
//
// Each dense kernel compiles one body per KernelVariant through
// function-level target attributes, so the library needs no -march flag
// and one binary runs on any x86-64 host; kernel_variant() picks the body
// once per process from cpuid. Off x86 only the portable variant exists.
//
// Every variant computes each output element with the same sequence of
// correctly rounded operations (explicit fma, never a contracted a*b+c), so
// all variants produce the same bits.
#pragma once

#if defined(__x86_64__) || defined(__i386__)
#define SPCHOL_DENSE_X86 1
#define SPCHOL_TARGET_AVX2 __attribute__((target("avx2,fma")))
#define SPCHOL_TARGET_AVX512 __attribute__((target("avx512f,avx2,fma")))
#else
#define SPCHOL_DENSE_X86 0
#endif
