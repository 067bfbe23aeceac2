#!/bin/sh
# inlinecheck.sh fails unless the compiler inlines the hot-path helpers
# listed below into the functions that call them on the replay, decode
# and scheduling hot paths. Each line of the table reads
#
#   <file> <function> <callee as the compiler's -m output names it>
#
# where <function> is a plain name or Receiver.Method. The callee must be
# reported as "inlining call to <callee>" at a line inside <function>'s
# body. Run from the repository root: sh tools/inlinecheck.sh (GO selects
# the go command).
set -eu
GO=${GO:-go}
out=$(mktemp)
trap 'rm -f "$out"' EXIT
"$GO" build -gcflags=-m ./internal/trace ./internal/ctl >"$out" 2>&1

status=0
while read -r file fn callee; do
	case $fn in
	*.*) pat="^func \\([a-z]+ \\*?${fn%%.*}\\) ${fn#*.}\\(" ;;
	*) pat="^func ${fn}\\(" ;;
	esac
	# The body runs from the func line to the first closing brace in
	# column 1; the callee must be inlined at a line in that range.
	if ! awk -v pat="$pat" -v file="$file" -v callee="$callee" '
		NR == FNR {
			if (start == 0 && $0 ~ pat) start = FNR
			else if (start > 0 && end == 0 && /^}/) end = FNR
			next
		}
		{
			split($0, f, ":")
			if (f[1] == file && f[2] + 0 >= start && f[2] + 0 <= end &&
				substr($0, index($0, ": inlining call to ") + 19) == callee) found = 1
		}
		END { exit !(start > 0 && found) }
	' "$file" "$out"; then
		echo "inline-check: $callee is not inlined into $fn ($file)" >&2
		status=1
	fi
done <<'EOF'
internal/trace/binary.go BinaryScanner.ScanBatch codec.FastVarint
internal/ctl/binary.go BinaryScanner.Scan codec.(*Slab).Refill
internal/ctl/binary.go BinaryScanner.Scan codec.FastVarint
internal/ctl/binary.go BinaryScanner.Scan binary.littleEndian.Uint64
internal/ctl/binary.go BinaryScanner.Scan codec.WordVarint
internal/ctl/binary.go BinaryScanner.Scan codec.Unzigzag
internal/trace/scanner.go parseLine codec.SkipSpace
internal/trace/scanner.go parseLine codec.ParseInt
internal/trace/scanner.go parseLine codec.EndOfField
internal/trace/scanner.go parseOpBytes codec.EqFold
internal/ctl/access.go parseAccessLine codec.SkipSpace
internal/ctl/access.go parseAccessLine codec.ParseUint
internal/ctl/access.go parseAccessLine codec.EndOfField
internal/ctl/access.go parseAccessOp codec.EqFold
internal/trace/trace.go Simulator.Issue timing.(*Rules).ColumnAt
internal/trace/trace.go Simulator.Issue timing.(*Rules).PrechargeAt
internal/trace/trace.go Simulator.Issue timing.(*Rules).RefreshAt
internal/trace/trace.go Simulator.Issue timing.(*Rules).LowPowerAt
internal/trace/trace.go Simulator.Issue timing.(*Rules).Activate
internal/trace/trace.go Simulator.Issue timing.(*Rules).Column
internal/trace/trace.go Simulator.Issue timing.(*Rules).Precharge
internal/trace/trace.go Simulator.Issue timing.(*Rules).Refresh
internal/trace/trace.go Simulator.Issue timing.(*Rules).EnterLowPower
internal/trace/trace.go Simulator.Issue timing.(*Rules).ExitPowerDown
internal/trace/trace.go Simulator.Issue timing.(*Rules).ExitSelfRefresh
internal/trace/trace.go Simulator.Issue timing.(*Rules).Banks
internal/trace/trace.go Simulator.Issue timing.(*Rules).Row
internal/trace/trace.go Simulator.Issue timing.(*Rules).OpenBanks
internal/trace/trace.go Simulator.Issue timing.(*Rules).Timing
internal/trace/trace.go Simulator.Issue timing.(*Rules).Deadline
internal/trace/trace.go Simulator.Issue timing.(*Rules).Overdue
internal/trace/trace.go Simulator.Issue timing.(*Rules).ExitAt
internal/ctl/ctl.go Controller.firstCommandSlot timing.(*Rules).ColumnAt
internal/ctl/ctl.go Controller.firstCommandSlot timing.(*Rules).PrechargeAt
internal/ctl/ctl.go Controller.column timing.(*Rules).ColumnAt
internal/ctl/ctl.go Controller.column timing.(*Rules).Column
internal/ctl/ctl.go Controller.precharge timing.(*Rules).PrechargeAt
internal/ctl/ctl.go Controller.precharge timing.(*Rules).Precharge
internal/ctl/ctl.go Controller.activate timing.(*Rules).Activate
internal/ctl/ctl.go Controller.issueRef timing.(*Rules).RefreshAt
internal/ctl/ctl.go Controller.issueRef timing.(*Rules).Refresh
internal/ctl/ctl.go Controller.quietSlot timing.(*Rules).LowPowerAt
internal/ctl/ctl.go Controller.powerDown timing.(*Rules).LowPowerExit
internal/ctl/ctl.go Controller.powerDown timing.(*Rules).EnterLowPower
internal/ctl/ctl.go Controller.powerDown timing.(*Rules).ExitPowerDown
internal/ctl/ctl.go Controller.fillGap timing.(*Rules).LowPowerExit
internal/ctl/ctl.go Controller.fillGap timing.(*Rules).RefreshAt
internal/ctl/ctl.go Controller.fillGap timing.(*Rules).ExitSelfRefresh
EOF
exit $status
