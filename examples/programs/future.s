# future.s — the paper's §4.2.1 futures (the APRIL/Alewife technique):
# "an unresolved future is represented as an unaligned pointer. When the
# value of the future is available, the pointer is updated and aligned."
# A future cell holds either an aligned pointer to its resolved value or
# an odd token naming the deferred computation. Touching an unresolved
# future faults; the user-level handler runs the deferred computation
# (future i computes fib(i+1)), stores the value, aligns the pointer,
# and resumes. The consumer never tells resolved from unresolved
# futures, and a future resolves exactly once however often it is
# touched.
#
# For each (futures, touches) pair in the table, the program creates the
# futures, touches each one that many times, and prints the sum over
# all touches, the faults its handler took and the futures it resolved:
# both one per future, not one per touch.
#
#   go run ./cmd/uexc-run examples/programs/future.s

main:
	addiu sp, sp, -8
	sw    ra, 0(sp)
	sw    s1, 4(sp)
	la    t0, resolver
	la    t1, __fexc_chandler
	sw    t0, 0(t1)
	la    a0, __fexc_low
	li    a1, (1<<4)|(1<<5)      # AdEL|AdES
	jal   __uexc_enable
	nop
	la    s1, configs
next_config:
	lw    a0, 0(s1)
	lw    a1, 4(s1)
	beqz  a0, done
	nop
	jal   run
	nop
	addiu s1, s1, 8
	b     next_config
	nop
done:
	lw    s1, 4(sp)
	lw    ra, 0(sp)
	addiu sp, sp, 8
	li    v0, 0
	jr    ra
	nop

# run(a0 = futures, a1 = touches): create the futures, touch each one
# a1 times, and print one line.
run:
	addiu sp, sp, -8
	sw    ra, 0(sp)
	la    t0, n
	sw    a0, 0(t0)
	la    t0, touches
	sw    a1, 0(t0)
	la    t0, faults
	sw    zero, 0(t0)
	la    t0, resolved
	sw    zero, 0(t0)

	# Create futures: cell i holds (slot address | 1) with the argument
	# stored in the slot (the deferred computation's operand lives
	# where its result will go).
	la    t0, cells
	la    t1, slots
	li    t2, 0                  # i
mkfut:
	ori   t3, t1, 1              # unresolved token: odd slot address
	sw    t3, 0(t0)
	addiu t4, t2, 1
	sw    t4, 0(t1)              # argument: fib(i+1)
	addiu t0, t0, 4
	addiu t1, t1, 4
	addiu t2, t2, 1
	bne   t2, a0, mkfut
	nop

	# Touch every future a1 times. The pointer being dereferenced
	# lives in t4, which the exception frame saves at offset 0x3c, so
	# the resolver can repair it.
	move  s0, a1
	li    s2, 0                  # sum
touchround:
	la    s3, cells
	la    t0, n
	lw    s4, 0(t0)
touchloop:
	lw    t4, 0(s3)              # the future (maybe odd)
	nop
	lw    t5, 0(t4)              # touch: faults if unresolved
	nop
	addu  s2, s2, t5
	addiu s3, s3, 4
	addiu s4, s4, -1
	bnez  s4, touchloop
	nop
	addiu s0, s0, -1
	bnez  s0, touchround
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

# The resolver: badva is the odd slot address; the slot holds the
# argument k. Compute fib(k) iteratively, store it in the slot, align
# the future cell's pointer (the slot's index gives the cell), repair
# the cursor, count the fault and the resolution, and resume.
resolver:
	la    t7, faults
	lw    t5, 0(t7)
	nop
	addiu t5, t5, 1
	sw    t5, 0(t7)
	lw    t6, 8(a0)              # FrBadVAddr
	nop
	addiu t6, t6, -1             # slot address
	lw    t7, 0(t6)              # argument k
	nop
	li    t8, 0                  # fib(0)
	li    t9, 1                  # fib(1)
fibloop:
	addu  t5, t8, t9
	move  t8, t9
	move  t9, t5
	addiu t7, t7, -1
	bnez  t7, fibloop
	nop
	sw    t8, 0(t6)              # resolve: value into the slot
	la    t7, slots
	subu  t7, t6, t7             # byte offset = index*4
	la    t5, cells
	addu  t5, t5, t7
	sw    t6, 0(t5)              # cell now holds the aligned slot address
	sw    t6, 0x3c(a0)           # repair cursor (frame t4)
	la    t7, resolved
	lw    t5, 0(t7)
	nop
	addiu t5, t5, 1
	sw    t5, 0(t7)
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
configs:
	.word 10, 5                  # futures, touches each
	.word 1, 100
	.word 0
n:	.word 0
touches:
	.word 0
sum:	.word 0
faults:	.word 0
resolved:
	.word 0
args:	.word n, touches, sum, faults, resolved
cells:	.space 10 * 4                # room for 10 futures
slots:	.space 10 * 4
numbuf:	.space 12
format:	.asciiz "future n=% touches=% sum=% faults=% resolved=%\n"
