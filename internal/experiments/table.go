// Package experiments regenerates every table and figure of the paper's
// evaluation (§VI–VII): weak scaling (Fig. 4a), messaging analysis
// (Fig. 4b), strong scaling (Fig. 5), thread scaling (Fig. 6), the PGAS
// versus MPI real-time comparison (Fig. 7), the CoCoMac region
// allocation map (Fig. 3), the headline scale table (§I/§VI-B), the PCC
// in-situ compilation comparison (§IV), and the process-versus-thread
// tradeoff (§VI-D).
//
// Each experiment combines two layers. The measured layer runs the real
// functional simulator and compiler on this host at reduced scale, where
// workload statistics (spikes, messages, bytes) are exact. The projected
// layer feeds analytic paper-scale workloads through the calibrated Blue
// Gene machine model in internal/perfmodel. Shapes come from the
// measured/analytic workloads; absolute wall-clock anchors come from the
// calibration pinned in perfmodel's tests.
package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"strings"
)

// Table is one reproduced table or figure, rendered as aligned text.
type Table struct {
	// ID is the experiment identifier ("fig4a", "headline", ...).
	ID string
	// Title describes the experiment.
	Title string
	// Header names the columns.
	Header []string
	// Rows holds the data, one string per column.
	Rows [][]string
	// Notes carries paper-versus-reproduction commentary printed after
	// the table.
	Notes []string
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title); err != nil {
		return err
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) error {
		var sb strings.Builder
		for i, cell := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(cell)
			if pad := widths[i] - len(cell); pad > 0 && i < len(cells)-1 {
				sb.WriteString(strings.Repeat(" ", pad))
			}
		}
		sb.WriteByte('\n')
		_, err := io.WriteString(w, sb.String())
		return err
	}
	if err := writeRow(t.Header); err != nil {
		return err
	}
	total := 0
	for _, wd := range widths {
		total += wd + 2
	}
	if _, err := fmt.Fprintln(w, strings.Repeat("-", total)); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := writeRow(row); err != nil {
			return err
		}
	}
	for _, n := range t.Notes {
		if _, err := fmt.Fprintf(w, "note: %s\n", n); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// Markdown writes the table as a GitHub-flavoured markdown table.
func (t *Table) Markdown(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "### %s — %s\n\n", t.ID, t.Title); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "| %s |\n", strings.Join(t.Header, " | ")); err != nil {
		return err
	}
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = "---"
	}
	if _, err := fmt.Fprintf(w, "| %s |\n", strings.Join(sep, " | ")); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if _, err := fmt.Fprintf(w, "| %s |\n", strings.Join(row, " | ")); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintln(w); err != nil {
		return err
	}
	for _, n := range t.Notes {
		if _, err := fmt.Fprintf(w, "> %s\n", n); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// CSV writes the table as RFC-4180 CSV with a leading comment line
// carrying the ID and title, for downstream plotting.
func (t *Table) CSV(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "# %s: %s\n", t.ID, t.Title); err != nil {
		return err
	}
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Header); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return err
	}
	_, err := fmt.Fprintln(w)
	return err
}

// Experiment pairs an ID with its generator.
type Experiment struct {
	ID   string
	Name string
	Run  func() ([]*Table, error)
}

// All returns every experiment in presentation order.
func All() []Experiment {
	return []Experiment{
		{"fig3", "CoCoMac region core allocations", Fig3},
		{"fig4a", "Weak scaling, total and per-phase time", Fig4a},
		{"fig4b", "Messaging and data transfer analysis", Fig4b},
		{"fig5", "Strong scaling", Fig5},
		{"fig6", "OpenMP thread scaling", Fig6},
		{"fig7", "PGAS vs MPI real-time simulation", Fig7},
		{"headline", "Headline scale (256M cores, 388x real time)", Headline},
		{"pcc", "PCC in-situ compilation vs explicit model files", PCCSetup},
		{"tradeoff", "MPI processes vs OpenMP threads tradeoff", Tradeoff},
		{"ablation", "Communication design-choice ablations", Ablation},
		{"power", "TrueNorth hardware power estimation", Power},
		{"c2", "Compass vs the C2 baseline simulator", C2Comparison},
	}
}

// Lookup returns the experiment with the given ID.
func Lookup(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// fmtMS formats seconds as milliseconds.
func fmtMS(sec float64) string { return fmt.Sprintf("%.1f", sec*1000) }

// fmtF formats a float with one decimal.
func fmtF(v float64) string { return fmt.Sprintf("%.1f", v) }

// fmtI formats an integer with thousands grouping.
func fmtI(v int) string {
	s := fmt.Sprintf("%d", v)
	if v < 0 {
		return s
	}
	var out []byte
	for i, c := range []byte(s) {
		if i > 0 && (len(s)-i)%3 == 0 {
			out = append(out, ',')
		}
		out = append(out, c)
	}
	return string(out)
}
