package cell

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// ParseLibrary reads a library in the compact text format:
//
//	library <name>
//	wire_cap <fF>
//	output_load <fF>
//	cell <name> inputs=<k> func=<hex> area=<um2> cap=<fF> intrinsic=<ps> drive=<ps/fF>
//
// Lines beginning with '#' and blank lines are ignored. The function field
// is the truth table over the cell's pins (pin 0 is the least significant
// input), expressed in the low 2^k bits. A library may declare at most
// maxCells cells.
func ParseLibrary(r io.Reader) (*Library, error) {
	lib := &Library{WireCapFF: 1.0, OutputLoadFF: 4.0}
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "library":
			if len(fields) != 2 {
				return nil, fmt.Errorf("cell: line %d: library wants a name", lineNo)
			}
			lib.Name = fields[1]
		case "wire_cap":
			v, err := parseFloat(fields, lineNo)
			if err != nil {
				return nil, err
			}
			lib.WireCapFF = v
		case "output_load":
			v, err := parseFloat(fields, lineNo)
			if err != nil {
				return nil, err
			}
			lib.OutputLoadFF = v
		case "cell":
			if len(lib.Cells) == maxCells {
				return nil, fmt.Errorf("cell: line %d: library declares more than %d cells", lineNo, maxCells)
			}
			c, err := parseCell(fields, lineNo)
			if err != nil {
				return nil, err
			}
			lib.Cells = append(lib.Cells, c)
		default:
			return nil, fmt.Errorf("cell: line %d: unknown directive %q", lineNo, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if lib.Name == "" {
		return nil, fmt.Errorf("cell: missing library directive")
	}
	if err := lib.finalize(); err != nil {
		return nil, err
	}
	return lib, nil
}

// maxCells bounds the cells one library may declare: 146 times the
// builtin library's 28. The parse loop refuses the first cell past it,
// before any cell is characterized, so a refused library costs memory
// bounded by the cap rather than by its text. maxMatches bounds only
// the cells that enter the match index; inverters, buffers and tie
// cells never do, so only this cap bounds a library of them.
const maxCells = 1 << 12

func parseFloat(fields []string, lineNo int) (float64, error) {
	if len(fields) != 2 {
		return 0, fmt.Errorf("cell: line %d: %s wants one value", lineNo, fields[0])
	}
	v, ok := parseNumber(fields[1], false)
	if !ok {
		return 0, fmt.Errorf("cell: line %d: bad value %q", lineNo, fields[1])
	}
	return v, nil
}

// parseNumber parses a finite, non-negative number, and a positive one
// when positive is set. NaN and the infinities are refused: every
// comparison with NaN is false, so a range check alone would let it in.
func parseNumber(s string, positive bool) (float64, bool) {
	v, err := strconv.ParseFloat(s, 64)
	if err != nil || math.IsNaN(v) || math.IsInf(v, 0) || v < 0 || positive && v == 0 {
		return 0, false
	}
	return v, true
}

func parseCell(fields []string, lineNo int) (*Cell, error) {
	if len(fields) < 2 {
		return nil, fmt.Errorf("cell: line %d: cell wants a name", lineNo)
	}
	c := &Cell{Name: fields[1]}
	seen := map[string]bool{}
	for _, kv := range fields[2:] {
		parts := strings.SplitN(kv, "=", 2)
		if len(parts) != 2 {
			return nil, fmt.Errorf("cell: line %d: bad attribute %q", lineNo, kv)
		}
		key, val := parts[0], parts[1]
		if seen[key] {
			return nil, fmt.Errorf("cell: line %d: duplicate attribute %q", lineNo, key)
		}
		seen[key] = true
		switch key {
		case "inputs":
			n, err := strconv.Atoi(val)
			if err != nil || n < 0 || n > 4 {
				return nil, fmt.Errorf("cell: line %d: bad inputs %q", lineNo, val)
			}
			c.NumInputs = n
		case "func":
			f, err := strconv.ParseUint(strings.TrimPrefix(val, "0x"), 16, 16)
			if err != nil {
				return nil, fmt.Errorf("cell: line %d: bad func %q", lineNo, val)
			}
			c.Function = uint16(f)
		case "area":
			v, ok := parseNumber(val, true)
			if !ok {
				return nil, fmt.Errorf("cell: line %d: bad area %q", lineNo, val)
			}
			c.AreaUM2 = v
		case "cap":
			v, ok := parseNumber(val, false)
			if !ok {
				return nil, fmt.Errorf("cell: line %d: bad cap %q", lineNo, val)
			}
			c.InputCapFF = v
		case "intrinsic":
			v, ok := parseNumber(val, false)
			if !ok {
				return nil, fmt.Errorf("cell: line %d: bad intrinsic %q", lineNo, val)
			}
			c.IntrinsicPS = v
		case "drive":
			v, ok := parseNumber(val, false)
			if !ok {
				return nil, fmt.Errorf("cell: line %d: bad drive %q", lineNo, val)
			}
			c.DrivePSPerFF = v
		default:
			return nil, fmt.Errorf("cell: line %d: unknown attribute %q", lineNo, key)
		}
	}
	if !seen["inputs"] || !seen["area"] {
		return nil, fmt.Errorf("cell: line %d: cell %s missing inputs/area", lineNo, c.Name)
	}
	return c, nil
}
