# stream.s — the paper's §4.2.1 unbounded data structure: a lazily
# materialized, conceptually infinite Fibonacci list whose unevaluated
# tail is an unaligned (odd) pointer. A traversal that walks off the
# evaluated prefix takes an unaligned-access fault; the fast user-level
# handler materializes the next cell, repairs the pointer and the
# traversal cursor, and resumes. The consumer has no "force the next
# element" call anywhere.
#
# For each count n in the table, the program sums the first n elements
# twice and prints both sums and the faults its handler took: n-1, since
# the head cell is evaluated statically and the second traversal finds
# every cell already there.
#
#   go run ./cmd/uexc-run examples/programs/stream.s

main:
	addiu sp, sp, -8
	sw    ra, 0(sp)
	sw    s1, 4(sp)
	la    t0, stream_handler
	la    t1, __fexc_chandler
	sw    t0, 0(t1)
	la    a0, __fexc_low
	li    a1, (1<<4)|(1<<5)      # AdEL|AdES
	jal   __uexc_enable
	nop
	la    s1, counts
next_count:
	lw    a0, 0(s1)
	nop
	beqz  a0, done
	nop
	jal   run
	nop
	addiu s1, s1, 4
	b     next_count
	nop
done:
	lw    s1, 4(sp)
	lw    ra, 0(sp)
	addiu sp, sp, 8
	li    v0, 0
	jr    ra
	nop

# run(a0 = n): reset the stream to its evaluated head, sum its first n
# elements twice, and print one line.
run:
	addiu sp, sp, -8
	sw    ra, 0(sp)
	la    t0, n
	sw    a0, 0(t0)
	la    t0, faults
	sw    zero, 0(t0)
	la    t0, stream_arena
	li    t1, 1
	sw    t1, 0(t0)              # head: fib(1)
	addiu t1, t0, 9
	sw    t1, 4(t0)              # unevaluated tail marker
	la    t0, fib_state
	li    t1, 1
	sw    t1, 0(t0)              # next datum
	li    t1, 2
	sw    t1, 4(t0)              # its successor

	la    t0, n
	lw    s0, 0(t0)
	jal   sum_stream
	nop
	la    t0, sum
	sw    s2, 0(t0)
	la    t0, n
	lw    s0, 0(t0)
	jal   sum_stream             # traverse again: all cells exist now
	nop
	la    t0, second
	sw    s2, 0(t0)

	la    a0, format
	la    a1, args
	jal   printf
	nop
	lw    ra, 0(sp)
	addiu sp, sp, 8
	jr    ra
	nop

# sum_stream: s0 = count in; s2 = sum out. The cursor lives in t4,
# which the exception frame saves at offset 0x3c, so the handler can
# repair it.
sum_stream:
	la    t4, stream_arena
	li    s2, 0
sumloop:
	lw    t5, 0(t4)              # datum: faults on unevaluated tail
	nop
	addu  s2, s2, t5
	lw    t4, 4(t4)              # next pointer (possibly odd)
	addiu s0, s0, -1
	bnez  s0, sumloop
	nop
	jr    ra
	nop

# The C-level fast handler: materialize the cell at (badvaddr & ~1) with
# the next Fibonacci number, chain a new unevaluated tail, repair the
# previous cell's next field and the saved cursor, count the fault, and
# resume (the faulting load retries against the now-real cell).
stream_handler:
	lw    t6, 8(a0)              # FrBadVAddr: the odd pointer
	nop
	addiu t6, t6, -1             # real cell address
	la    t7, fib_state
	lw    t8, 0(t7)              # a: this cell's datum
	lw    t9, 4(t7)              # b
	sw    t8, 0(t6)              # cell.datum = a
	addu  t8, t8, t9             # a+b
	sw    t9, 0(t7)              # a' = b
	sw    t8, 4(t7)              # b' = a+b
	addiu t9, t6, 8
	ori   t9, t9, 1
	sw    t9, 4(t6)              # cell.next = (cell+8) | 1  (lazy tail)
	sw    t6, -4(t6)             # previous cell's next: now evaluated
	sw    t6, 0x3c(a0)           # repair the saved cursor (frame t4)
	la    t7, faults
	lw    t8, 0(t7)
	nop
	addiu t8, t8, 1
	sw    t8, 0(t7)
	jr    ra
	nop

# printf(a0 = format, a1 = argument table): write the format to the
# console, replacing each '%' with the word at the next address in the
# table, in decimal.
printf:
	addiu sp, sp, -12
	sw    ra, 0(sp)
	sw    s0, 4(sp)
	sw    s1, 8(sp)
	move  s0, a0
	move  s1, a1
pf_loop:
	lbu   t0, 0(s0)
	nop
	beqz  t0, pf_done
	nop
	li    t1, '%'
	bne   t0, t1, pf_char
	nop
	lw    t0, 0(s1)
	nop
	lw    a0, 0(t0)
	jal   print_u32
	nop
	addiu s1, s1, 4
	b     pf_next
	nop
pf_char:
	li    a0, 1
	move  a1, s0
	li    a2, 1
	li    v0, SYS_write
	syscall
	nop
pf_next:
	addiu s0, s0, 1
	b     pf_loop
	nop
pf_done:
	lw    s1, 8(sp)
	lw    s0, 4(sp)
	lw    ra, 0(sp)
	addiu sp, sp, 12
	jr    ra
	nop

# print_u32(a0): write a0 in decimal to the console.
print_u32:
	la    t0, numbuf + 12        # build digits backwards
	li    t3, 10
pdigit:
	addiu t0, t0, -1
	divu  a0, t3
	mfhi  t1
	mflo  a0
	addiu t1, t1, '0'
	sb    t1, 0(t0)
	bnez  a0, pdigit
	nop
	move  a1, t0
	la    t2, numbuf + 12
	subu  a2, t2, t0             # length
	li    a0, 1
	li    v0, SYS_write
	syscall
	nop
	jr    ra
	nop

	.align 4
counts:
	.word 1, 30, 500, 0          # element counts, zero-terminated
n:	.word 0
sum:	.word 0
second:	.word 0
faults:	.word 0
args:	.word n, sum, second, faults
fib_state:
	.word 1, 2                   # next datum, its successor
numbuf:	.space 12
format:	.asciiz "stream n=% sum=% second=% faults=%\n"

	.align 8
stream_arena:
	.word 1                      # head: fib(1)
	.word stream_arena + 8 + 1   # unevaluated tail marker
	.space 8192                  # room for 1024 materialized cells
