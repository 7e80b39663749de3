package experiments

import (
	"strings"
	"testing"

	"fsdinference/internal/golden"
)

// TestQuickGolden pins every registered experiment's table at QuickScale:
// testdata/TestQuickGolden.golden is what `fsdbench -exp all -scale quick`
// prints, less the wall-clock "(<id> regenerated in ...)" lines and with one
// blank line between tables. Every simulated number the paper's evaluation
// reports goes through these tables, so a change that claims to move none of
// them leaves the file alone, and a declared model change updates it
// (`make golden`) and shows the moved cells as the file's diff. The tables
// are the ones the shape tests of this package already regenerate once per
// test binary, so the comparison adds no run of its own; `make tables` runs
// it alone.
func TestQuickGolden(t *testing.T) {
	var sb strings.Builder
	for _, r := range Registry() {
		sb.WriteString(table(t, r.ID).String())
		sb.WriteByte('\n')
	}
	golden.Check(t, sb.String())
}
