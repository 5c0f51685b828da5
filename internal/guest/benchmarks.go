package guest

import (
	"fmt"

	"vpdift/internal/asm"
)

// Benchmark is one Table II workload: a self-contained guest program. The
// guest self-verifies its result and exits 0 on success; when ExpectUART is
// non-empty the host additionally compares the console output.
type Benchmark struct {
	Name       string
	Image      *asm.Image
	ExpectUART string
	// Interactive benchmarks (simple-sensor) need simulated time to pass;
	// MinSimTimeMS hints how long the host must run the platform.
	MinSimTimeMS int
}

// QSort builds the quicksort benchmark: sort n pseudo-random words, then
// verify ascending order (the paper uses newlib's qsort).
func QSort(n int) Benchmark {
	src := fmt.Sprintf("\t.equ QSORT_N, %d\n", n) + `
main:
	addi sp, sp, -16
	sw ra, 12(sp)
	sw s0, 8(sp)
	sw s1, 4(sp)
	sw s2, 0(sp)
	li a0, 0xBEEF
	call srand
	la s0, qs_array
	li s1, 0
	li s2, QSORT_N
1:	call rand
	slli t0, s1, 2
	add t0, t0, s0
	sw a0, 0(t0)
	addi s1, s1, 1
	blt s1, s2, 1b

	la a0, qs_array
	li a1, 0
	li a2, QSORT_N - 1
	call quicksort

	# verify ascending (signed, matching the sort comparisons)
	la s0, qs_array
	li s1, 1
2:	slli t0, s1, 2
	add t0, t0, s0
	lw t1, 0(t0)
	lw t2, -4(t0)
	blt t1, t2, qs_fail
	addi s1, s1, 1
	blt s1, s2, 2b
	li a0, 0
	j qs_done
qs_fail:
	li a0, 1
qs_done:
	lw s2, 0(sp)
	lw s1, 4(sp)
	lw s0, 8(sp)
	lw ra, 12(sp)
	addi sp, sp, 16
	ret

# quicksort(a0: base, a1: lo index, a2: hi index), Lomuto partition
quicksort:
	bge a1, a2, qs_ret
	addi sp, sp, -32
	sw ra, 28(sp)
	sw s0, 24(sp)
	sw s1, 20(sp)
	sw s2, 16(sp)
	sw s3, 12(sp)
	mv s0, a0
	mv s1, a1
	mv s2, a2
	slli t0, s2, 2
	add t0, t0, s0
	lw t1, 0(t0)          # pivot = a[hi]
	mv t2, s1             # i
	mv t3, s1             # j
3:	bge t3, s2, 4f
	slli t4, t3, 2
	add t4, t4, s0
	lw t5, 0(t4)
	bge t5, t1, 5f
	slli t6, t2, 2
	add t6, t6, s0
	lw a3, 0(t6)
	sw t5, 0(t6)
	sw a3, 0(t4)
	addi t2, t2, 1
5:	addi t3, t3, 1
	j 3b
4:	slli t4, t2, 2        # swap a[i], a[hi]
	add t4, t4, s0
	lw t5, 0(t4)
	slli t6, s2, 2
	add t6, t6, s0
	lw a3, 0(t6)
	sw a3, 0(t4)
	sw t5, 0(t6)
	mv s3, t2
	mv a0, s0
	mv a1, s1
	addi a2, s3, -1
	call quicksort
	mv a0, s0
	addi a1, s3, 1
	mv a2, s2
	call quicksort
	lw s3, 12(sp)
	lw s2, 16(sp)
	lw s1, 20(sp)
	lw s0, 24(sp)
	lw ra, 28(sp)
	addi sp, sp, 32
qs_ret:
	ret

	.bss
	.align 4
qs_array:
	.space QSORT_N * 4
`
	return Benchmark{Name: "qsort", Image: MustProgram(src)}
}

// primeCount mirrors the guest's trial-division count for self-check
// injection.
func primeCount(n int) int {
	count := 0
	for c := 2; c < n; c++ {
		prime := true
		for d := 2; d*d <= c; d++ {
			if c%d == 0 {
				prime = false
				break
			}
		}
		if prime {
			count++
		}
	}
	return count
}

// Primes builds the prime-number-generator benchmark: count primes below n
// by trial division and verify against the expected count.
func Primes(n int) Benchmark {
	src := fmt.Sprintf("\t.equ PRIMES_N, %d\n\t.equ PRIMES_EXPECT, %d\n", n, primeCount(n)) + `
main:
	li s0, 2              # candidate
	li s1, 0              # count
	li s2, PRIMES_N
1:	bge s0, s2, 4f
	li t0, 2
2:	mul t1, t0, t0
	bgt t1, s0, 3f        # no divisor up to sqrt: prime
	rem t2, s0, t0
	beqz t2, 5f
	addi t0, t0, 1
	j 2b
3:	addi s1, s1, 1
5:	addi s0, s0, 1
	j 1b
4:	li t0, PRIMES_EXPECT
	bne s1, t0, 6f
	li a0, 0
	ret
6:	li a0, 1
	ret
`
	return Benchmark{Name: "primes", Image: MustProgram(src)}
}

// dhryChecksum mirrors the guest loop below in Go, producing the expected
// checksum for self-verification.
func dhryChecksum(iters int) uint32 {
	var arr1 [50]uint32
	var sum uint32
	s1 := "DHRYSTONE PROGRAM, 1'ST STRING"
	s2 := "DHRYSTONE PROGRAM, 2'ND STRING"
	for i := 0; i < iters; i++ {
		x := uint32(i)*3 + 1
		idx := uint32(i) % 50
		arr1[idx] = x
		arr1[(idx+7)%50] = arr1[idx] + 17
		// "Func2": first differing character position drives a branch.
		diff := 0
		for k := 0; k < len(s1); k++ {
			if s1[k] != s2[k] {
				diff = k
				break
			}
		}
		if uint32(diff)+x > 30 {
			sum += arr1[(idx+7)%50] * 2
		} else {
			sum += x
		}
		// "Proc7" analog.
		sum += (x + 2) + (x << 1) - (x >> 2)
		// record copy analog: fold a few array cells.
		sum ^= arr1[(idx+3)%50]
	}
	return sum
}

// Dhrystone builds the dhrystone-like benchmark: a synthetic mix of array
// stores, string comparison, branches and arithmetic function calls modeled
// on the Dhrystone 2.1 procedures, self-checked against a precomputed
// checksum. (The original C Dhrystone cannot be compiled here — see
// DESIGN.md substitutions.)
func Dhrystone(iters int) Benchmark {
	src := fmt.Sprintf("\t.equ DHRY_ITERS, %d\n\t.equ DHRY_EXPECT, 0x%08x\n", iters, dhryChecksum(iters)) + `
main:
	addi sp, sp, -32
	sw ra, 28(sp)
	sw s0, 24(sp)
	sw s1, 20(sp)
	sw s2, 16(sp)
	sw s3, 12(sp)
	sw s4, 8(sp)
	li s0, 0              # i
	li s1, DHRY_ITERS
	li s2, 0              # sum
1:	bge s0, s1, 9f
	# x = i*3 + 1
	slli t0, s0, 1
	add t0, t0, s0
	addi s3, t0, 1        # x
	# idx = i % 50
	li t0, 50
	remu s4, s0, t0
	# arr1[idx] = x
	la t1, dhry_arr1
	slli t2, s4, 2
	add t2, t2, t1
	sw s3, 0(t2)
	# arr1[(idx+7)%50] = arr1[idx] + 17
	lw t3, 0(t2)
	addi t3, t3, 17
	addi t4, s4, 7
	li t0, 50
	remu t4, t4, t0
	slli t4, t4, 2
	add t4, t4, t1
	sw t3, 0(t4)
	# diff = first differing char of the two strings
	la a0, dhry_str1
	la a1, dhry_str2
	call dhry_strdiff
	# if diff + x > 30: sum += arr1[(idx+7)%50]*2 else sum += x
	add t0, a0, s3
	li t1, 30
	bleu t0, t1, 2f
	la t1, dhry_arr1
	addi t4, s4, 7
	li t0, 50
	remu t4, t4, t0
	slli t4, t4, 2
	add t4, t4, t1
	lw t3, 0(t4)
	slli t3, t3, 1
	add s2, s2, t3
	j 3f
2:	add s2, s2, s3
3:	# Proc7 analog: sum += (x+2) + (x<<1) - (x>>2)
	addi t0, s3, 2
	slli t1, s3, 1
	add t0, t0, t1
	srli t1, s3, 2
	sub t0, t0, t1
	add s2, s2, t0
	# record fold: sum ^= arr1[(idx+3)%50]
	addi t4, s4, 3
	li t0, 50
	remu t4, t4, t0
	slli t4, t4, 2
	la t1, dhry_arr1
	add t4, t4, t1
	lw t3, 0(t4)
	xor s2, s2, t3
	addi s0, s0, 1
	j 1b
9:	li t0, DHRY_EXPECT
	bne s2, t0, 8f
	li a0, 0
	j 7f
8:	li a0, 1
7:	lw s4, 8(sp)
	lw s3, 12(sp)
	lw s2, 16(sp)
	lw s1, 20(sp)
	lw s0, 24(sp)
	lw ra, 28(sp)
	addi sp, sp, 32
	ret

# dhry_strdiff(a0, a1) -> a0: index of first differing byte (0 if equal)
dhry_strdiff:
	li t0, 0
1:	add t1, a0, t0
	lbu t2, 0(t1)
	add t1, a1, t0
	lbu t3, 0(t1)
	bne t2, t3, 2f
	beqz t2, 3f
	addi t0, t0, 1
	j 1b
3:	li t0, 0
2:	mv a0, t0
	ret

	.data
dhry_str1:
	.asciz "DHRYSTONE PROGRAM, 1'ST STRING"
dhry_str2:
	.asciz "DHRYSTONE PROGRAM, 2'ND STRING"
	.bss
	.align 4
dhry_arr1:
	.space 200
`
	return Benchmark{Name: "dhrystone", Image: MustProgram(src)}
}

// SimpleSensor builds the interrupt-driven sensor-to-UART copy application
// of Table II: claim the sensor IRQ, copy the 64-byte frame to the console,
// repeat for the given number of frames.
func SimpleSensor(frames int) Benchmark {
	src := fmt.Sprintf("\t.equ SENSOR_FRAMES, %d\n", frames) + `
main:
	la t0, ss_trap
	csrw mtvec, t0
	li t0, INTC_BASE
	li t1, 1 << IRQ_SENSOR
	sw t1, INTC_ENABLE(t0)
	li t1, 0x800          # MEIE
	csrw mie, t1
	csrsi mstatus, 8      # MIE
	la s0, ss_done
1:	lw t1, 0(s0)
	li t2, SENSOR_FRAMES
	blt t1, t2, 1b
	li a0, 0
	ret

ss_trap:
	addi sp, sp, -32
	sw t0, 28(sp)
	sw t1, 24(sp)
	sw t2, 20(sp)
	sw t3, 16(sp)
	sw t4, 12(sp)
	li t0, INTC_BASE
	lw t1, INTC_CLAIM(t0)
	li t0, SENSOR_BASE
	li t1, UART_BASE
	li t2, 0
2:	add t3, t0, t2
	lbu t4, 0(t3)
	sw t4, UART_TX(t1)
	addi t2, t2, 1
	li t3, 64
	blt t2, t3, 2b
	la t0, ss_done
	lw t1, 0(t0)
	addi t1, t1, 1
	sw t1, 0(t0)
	lw t4, 12(sp)
	lw t3, 16(sp)
	lw t2, 20(sp)
	lw t1, 24(sp)
	lw t0, 28(sp)
	addi sp, sp, 32
	mret

	.data
	.align 2
ss_done:
	.word 0
`
	return Benchmark{
		Name:         "simple-sensor",
		Image:        MustProgram(src),
		MinSimTimeMS: frames*25 + 50,
	}
}
