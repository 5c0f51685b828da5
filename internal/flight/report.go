package flight

import (
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// WriteReport renders the bundle as a human-readable forensic report: the
// headline verdict, the disassembled trace window, the register/tag file
// and the memory hexdumps. The output is deterministic for a deterministic
// run — volatile fields (GoVersion, the metrics map, which includes the
// host-calibrated capture cost) are deliberately excluded so the report can
// be golden-tested.
func (b *Bundle) WriteReport(w io.Writer) error {
	var sb strings.Builder

	fmt.Fprintf(&sb, "== vpdift forensic bundle (%s) ==\n", b.Schema)
	fmt.Fprintf(&sb, "reason:   %s\n", b.Reason)
	fmt.Fprintf(&sb, "version:  %s\n", b.Version)
	fmt.Fprintf(&sb, "sim time: %d ns   instret: %d   pc: %s\n", b.SimNs, b.Instret, b.PC)
	if b.Exited {
		fmt.Fprintf(&sb, "guest exited with code %d\n", b.ExitCode)
	}

	if v := b.Violation; v != nil {
		fmt.Fprintf(&sb, "\nviolation: %s\n", v.Message)
		fmt.Fprintf(&sb, "  kind %s: flow %s -> %s not allowed\n", v.Kind, v.Have, v.Required)
		line := "  pc " + v.PC
		if v.Addr != "" {
			line += "  addr " + v.Addr
		}
		if v.Value != "" {
			line += "  value " + v.Value
		}
		if v.Port != "" {
			line += "  port " + v.Port
		}
		sb.WriteString(line + "\n")
		if len(v.Provenance) > 0 {
			sb.WriteString("provenance (classification first, failed check last):\n")
			for _, p := range v.Provenance {
				fmt.Fprintf(&sb, "  %s\n", p)
			}
		}
	}
	if f := b.Fault; f != nil {
		fmt.Fprintf(&sb, "\nfault: %s\n", f.Cause)
		line := "  pc " + f.PC
		if f.Addr != "" {
			line += "  addr " + f.Addr
		}
		sb.WriteString(line + "\n")
	}

	if p := b.Policy; p != nil {
		fmt.Fprintf(&sb, "\npolicy: classes [%s], default %s\n",
			strings.Join(p.Classes, " "), p.Default)
		if p.Lattice != "" {
			fmt.Fprintf(&sb, "  lattice: %s\n", p.Lattice)
		}
	}

	fmt.Fprintf(&sb, "\ntrace (last %d of %d captured, %d overwritten):\n",
		len(b.Trace), b.Captured, b.Dropped)
	for _, t := range b.Trace {
		switch t.Kind {
		case "retire":
			line := fmt.Sprintf("  [%8d] %s  %s  %-28s", t.Seq, t.PC, t.Insn, t.Disasm)
			if t.Addr != "" {
				line += " addr=" + t.Addr
			}
			if t.Taken {
				line += " taken"
			}
			if t.TaintRd {
				line += " taint>rd"
			}
			sb.WriteString(strings.TrimRight(line, " ") + "\n")
		case "violation":
			fmt.Fprintf(&sb, "  [%8d] !! violation at %s", t.Seq, t.PC)
			if t.Disasm != "" {
				fmt.Fprintf(&sb, "  %s", t.Disasm)
			}
			if t.Addr != "" {
				fmt.Fprintf(&sb, "  addr=%s", t.Addr)
			}
			sb.WriteString(" !!\n")
		case "fault":
			fmt.Fprintf(&sb, "  [%8d] !! fault at %s", t.Seq, t.PC)
			if t.Disasm != "" {
				fmt.Fprintf(&sb, "  %s", t.Disasm)
			}
			if t.Addr != "" {
				fmt.Fprintf(&sb, "  addr=%s", t.Addr)
			}
			sb.WriteString(" !!\n")
		default:
			note := t.Note
			if note == "" {
				note = t.Kind
			}
			if t.Kind == "trap" && t.PC != "" {
				note += " epc=" + t.PC
			}
			if t.Addr != "" && t.Kind == "bus" {
				note += " addr=" + t.Addr
			}
			fmt.Fprintf(&sb, "  [%8d] -- %s --\n", t.Seq, note)
		}
	}

	sb.WriteString("\nregisters:\n")
	for i := 0; i < len(b.Regs); i += 4 {
		var line strings.Builder
		for j := i; j < i+4 && j < len(b.Regs); j++ {
			r := b.Regs[j]
			cell := fmt.Sprintf("%-4s=%s", r.Name, r.Value)
			if r.Class != "" {
				cell += "(" + r.Class + ")"
			}
			fmt.Fprintf(&line, "  %-28s", cell)
		}
		sb.WriteString(strings.TrimRight(line.String(), " ") + "\n")
	}

	if len(b.Mem) > 0 {
		sb.WriteString("\nmemory (±64B around touched addresses):\n")
		for _, mw := range b.Mem {
			data, err := hex.DecodeString(mw.Data)
			if err != nil {
				continue
			}
			var tags []byte
			if mw.Tags != "" {
				tags, _ = hex.DecodeString(mw.Tags)
			}
			start, _ := parseHex32(mw.Start)
			writeHexdump(&sb, start, data, tags)
		}
	}

	_, err := io.WriteString(w, sb.String())
	return err
}

// WriteFiles writes the bundle as <dir>/<name>.forensics.json, with its
// report beside it as <name>.forensics.txt, creating dir when needed. It
// returns the JSON file's path.
func (b *Bundle) WriteFiles(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name+".forensics.json")
	if err := os.WriteFile(path, b.JSON(), 0o644); err != nil {
		return "", err
	}
	var report strings.Builder
	b.WriteReport(&report) // a strings.Builder does not fail
	if err := os.WriteFile(filepath.Join(dir, name+".forensics.txt"), []byte(report.String()), 0o644); err != nil {
		return "", err
	}
	return path, nil
}

func parseHex32(s string) (uint32, bool) {
	var v uint32
	if _, err := fmt.Sscanf(s, "0x%x", &v); err != nil {
		return 0, false
	}
	return v, true
}

// writeHexdump renders one memory window, 16 bytes per line, with an ASCII
// gutter and (when present) the per-byte tag row underneath.
func writeHexdump(sb *strings.Builder, start uint32, data, tags []byte) {
	for off := 0; off < len(data); off += 16 {
		end := off + 16
		if end > len(data) {
			end = len(data)
		}
		var hexPart, ascii strings.Builder
		for k := off; k < end; k++ {
			fmt.Fprintf(&hexPart, "%02x ", data[k])
			if data[k] >= 0x20 && data[k] < 0x7f {
				ascii.WriteByte(data[k])
			} else {
				ascii.WriteByte('.')
			}
		}
		fmt.Fprintf(sb, "  0x%08x: %-48s |%s|\n", start+uint32(off), hexPart.String(), ascii.String())
		if tags != nil {
			var tagPart strings.Builder
			for k := off; k < end && k < len(tags); k++ {
				fmt.Fprintf(&tagPart, "%2x ", tags[k])
			}
			fmt.Fprintf(sb, "        tags: %s\n", strings.TrimRight(tagPart.String(), " "))
		}
	}
}
