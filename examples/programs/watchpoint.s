# watchpoint.s — conditional data watchpoints, one of the exception uses
# motivating the paper (its introduction cites Wahbe's VM-based
# watchpoints). The watched variable sits in its own 1 KB logical
# subpage (§3.2.4). In watch mode the kernel emulates each store to the
# watched subpage with its protection left intact, records the old and
# new values in the exception frame, advances the saved PC past the
# store, and notifies the user-level handler. The handler applies the
# condition ("new value above a threshold") at user level. The
# workload's other stores run at full speed, and stores to other
# subpages of the same hardware page are emulated without a
# notification.
#
# For each (stores, threshold) pair in the table, the program watches a
# fresh word, stores 3, 6, ..., 3n into it (with decoy stores to an
# unwatched subpage and an unrelated page), and prints the notifications
# its handler took, how many met the condition, the last old -> new
# transition, and the final value. The watchpoint is never re-armed.
#
#   go run ./cmd/uexc-run examples/programs/watchpoint.s

main:
	addiu sp, sp, -8
	sw    ra, 0(sp)
	sw    s1, 4(sp)
	la    t0, watch_handler
	la    t1, __fexc_chandler
	sw    t0, 0(t1)
	la    a0, __fexc_low
	li    a1, (1<<1)|(1<<2)|(1<<3)   # Mod|TLBL|TLBS
	jal   __uexc_enable
	nop
	li    a0, 1                  # enable watch mode
	li    v0, SYS_uexc_watch
	syscall
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

# run(a0 = n, a1 = threshold): watch a word of freshly allocated memory,
# store into it n times, and print one line.
run:
	addiu sp, sp, -8
	sw    ra, 0(sp)
	la    t0, n
	sw    a0, 0(t0)
	move  s0, a0
	la    t0, threshold
	sw    a1, 0(t0)
	la    t0, hits
	sw    zero, 0(t0)
	la    t0, matches
	sw    zero, 0(t0)
	la    t0, last_old
	sw    zero, 0(t0)
	la    t0, last_new
	sw    zero, 0(t0)
	li    a0, 8192
	li    v0, SYS_sbrk
	syscall
	nop
	move  s3, v0                 # the watched variable lives at s3
	sw    zero, 0(s3)
	move  a0, s3                 # arm: protect the watched subpage
	li    a1, 1024
	li    a2, 0
	li    v0, SYS_subpage
	syscall
	nop

	li    s2, 0
loop:
	# workload: a store to the watched variable...
	addiu s2, s2, 3
	sw    s2, 0(s3)              # watched: emulated + notified
	# ...plus decoys that must not notify:
	sw    s2, 2048(s3)           # same hardware page, unwatched subpage
	la    t0, scratch
	sw    s2, 0(t0)              # unrelated page
	addiu s0, s0, -1
	bnez  s0, loop
	nop

	lw    t0, 0(s3)              # read back the watched variable
	la    t1, final
	sw    t0, 0(t1)

	la    a0, format
	la    a1, args
	jal   printf
	nop
	lw    ra, 0(sp)
	addiu sp, sp, 8
	jr    ra
	nop

# The watchpoint handler: a0 = frame. Old value at 0x48, new at 0x4c,
# watched address in FrBadVAddr (0x08). The kernel already advanced the
# frame PC past the store; just observe and return.
watch_handler:
	la    t6, hits
	lw    t7, 0(t6)
	nop
	addiu t7, t7, 1
	sw    t7, 0(t6)
	lw    t7, 0x48(a0)           # old value
	la    t6, last_old
	sw    t7, 0(t6)
	lw    t7, 0x4c(a0)           # new value
	la    t6, last_new
	sw    t7, 0(t6)
	# conditional part: count new values above the threshold
	la    t6, threshold
	lw    t6, 0(t6)
	nop
	sltu  t6, t6, t7
	beqz  t6, watch_done
	nop
	la    t6, matches
	lw    t7, 0(t6)
	nop
	addiu t7, t7, 1
	sw    t7, 0(t6)
watch_done:
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
	.word 20, 0                  # stores, threshold
	.word 10, 15
	.word 100, 0
	.word 0
n:	.word 0
threshold:
	.word 0
hits:	.word 0
matches:
	.word 0
last_old:
	.word 0
last_new:
	.word 0
final:	.word 0
args:	.word n, threshold, hits, matches, last_old, last_new, final
scratch:
	.word 0
numbuf:	.space 12
format:	.asciiz "watchpoint n=% threshold=% hits=% matches=% last=%->% final=%\n"
