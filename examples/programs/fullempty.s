# fullempty.s — the paper's §4.2.1 full/empty-bit synchronization on a
# conventional processor. A cell is read through an indirection handle;
# while the cell is empty the handle is unaligned (odd), so a consumer's
# read faults. The fast user-level handler plays the producer: it fills
# the cell with the next value (10, 20, 30, ...), marks the handle full
# (even), repairs the consumer's cursor, and resumes, so the read
# observes the produced value. Consuming re-empties the cell by making
# the handle odd again. On the Tera and APRIL this is a hardware tag bit
# on every word; with fast user-level exceptions it costs storage only
# for the cells that synchronize.
#
# For each round count n in the table, the program consumes n values
# and prints their sum, 10+20+...+10n, and the faults its handler took:
# one per consumption.
#
#   go run ./cmd/uexc-run examples/programs/fullempty.s

main:
	addiu sp, sp, -8
	sw    ra, 0(sp)
	sw    s1, 4(sp)
	la    t0, producer_handler
	la    t1, __fexc_chandler
	sw    t0, 0(t1)
	la    a0, __fexc_low
	li    a1, (1<<4)|(1<<5)      # AdEL|AdES
	jal   __uexc_enable
	nop
	la    s1, rounds
next_rounds:
	lw    a0, 0(s1)
	nop
	beqz  a0, done
	nop
	jal   run
	nop
	addiu s1, s1, 4
	b     next_rounds
	nop
done:
	lw    s1, 4(sp)
	lw    ra, 0(sp)
	addiu sp, sp, 8
	li    v0, 0
	jr    ra
	nop

# run(a0 = n): empty the cell, consume n values through it, and print
# one line. The cursor lives in t4, which the exception frame saves at
# offset 0x3c, so the handler can repair it.
run:
	addiu sp, sp, -8
	sw    ra, 0(sp)
	la    t0, n
	sw    a0, 0(t0)
	move  s0, a0
	la    t0, faults
	sw    zero, 0(t0)
	la    t0, seq
	sw    zero, 0(t0)
	la    t0, cell
	addiu t0, t0, 1
	la    t1, handle
	sw    t0, 0(t1)              # empty
	li    s2, 0
consume_loop:
	la    t4, handle
	lw    t4, 0(t4)              # current handle (odd while empty)
	nop
	lw    t5, 0(t4)              # read: blocks (faults) on empty
	nop
	addu  s2, s2, t5
	# consume: mark the cell empty again (set the handle odd)
	la    t6, handle
	lw    t7, 0(t6)
	nop
	ori   t7, t7, 1
	sw    t7, 0(t6)
	addiu s0, s0, -1
	bnez  s0, consume_loop
	nop
	la    t0, sum
	sw    s2, 0(t0)

	la    a0, format
	la    a1, args
	jal   printf
	nop
	lw    ra, 0(sp)
	addiu sp, sp, 8
	jr    ra
	nop

# The producer, invoked by the read-on-empty fault: fill the cell with
# the next value, mark the handle full, repair the consumer's cursor,
# and count the fault.
producer_handler:
	lw    t6, 8(a0)              # FrBadVAddr = cell address | 1
	nop
	addiu t6, t6, -1             # cell
	la    t7, seq
	lw    t8, 0(t7)
	nop
	addiu t8, t8, 10
	sw    t8, 0(t7)              # seq += 10
	sw    t8, 0(t6)              # fill the cell
	la    t7, handle
	sw    t6, 0(t7)              # handle full (even)
	sw    t6, 0x3c(a0)           # repair saved cursor (frame t4)
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
rounds:
	.word 1, 25, 1000, 0         # round counts, zero-terminated
n:	.word 0
sum:	.word 0
faults:	.word 0
args:	.word n, sum, faults
cell:	.word 0
handle:	.word 0
seq:	.word 0
numbuf:	.space 12
format:	.asciiz "fullempty n=% sum=% faults=%\n"
