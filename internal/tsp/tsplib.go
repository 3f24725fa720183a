package tsp

// TSPLIB-subset instance I/O: the solver accepts the formats the classic
// benchmark library uses for symmetric instances — EUC_2D coordinates and
// explicit FULL_MATRIX weights — so the reproduction can be driven with
// standard instances as well as generated ones.

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// ParseTSPLIB reads a TSPLIB-format symmetric TSP instance supporting
// EDGE_WEIGHT_TYPE EUC_2D (with NODE_COORD_SECTION; distances rounded to
// nearest integer, per the TSPLIB convention) and EXPLICIT with
// EDGE_WEIGHT_FORMAT FULL_MATRIX (with EDGE_WEIGHT_SECTION).
func ParseTSPLIB(r io.Reader) (*Instance, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)

	var (
		name       string
		dimension  int
		weightType string
		weightFmt  string
	)
	readHeader := func(line string) (done bool, err error) {
		switch {
		case line == "NODE_COORD_SECTION", line == "EDGE_WEIGHT_SECTION":
			return true, nil
		case line == "EOF", line == "":
			return false, nil
		}
		key, value, ok := strings.Cut(line, ":")
		if !ok {
			return false, fmt.Errorf("tsp: malformed TSPLIB header line %q", line)
		}
		key = strings.TrimSpace(key)
		value = strings.TrimSpace(value)
		switch key {
		case "NAME":
			name = value
		case "DIMENSION":
			d, err := strconv.Atoi(value)
			if err != nil || d < 3 {
				return false, fmt.Errorf("tsp: bad DIMENSION %q", value)
			}
			dimension = d
		case "EDGE_WEIGHT_TYPE":
			weightType = value
		case "EDGE_WEIGHT_FORMAT":
			weightFmt = value
		case "TYPE":
			if value != "TSP" {
				return false, fmt.Errorf("tsp: unsupported TYPE %q", value)
			}
		case "COMMENT", "DISPLAY_DATA_TYPE":
			// informational
		default:
			// Unknown keys are tolerated, as TSPLIB readers convention.
		}
		return false, nil
	}

	inSection := false
	var sectionLine string
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		done, err := readHeader(line)
		if err != nil {
			return nil, err
		}
		if done {
			inSection = true
			sectionLine = line
			break
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if !inSection {
		return nil, fmt.Errorf("tsp: TSPLIB input has no data section")
	}
	if dimension == 0 {
		return nil, fmt.Errorf("tsp: TSPLIB input has no DIMENSION")
	}

	switch {
	case sectionLine == "NODE_COORD_SECTION" && weightType == "EUC_2D":
		return parseCoords(sc, name, dimension)
	case sectionLine == "EDGE_WEIGHT_SECTION" && weightType == "EXPLICIT" && weightFmt == "FULL_MATRIX":
		return parseFullMatrix(sc, name, dimension)
	default:
		return nil, fmt.Errorf("tsp: unsupported TSPLIB combination (type %q, format %q, section %q)",
			weightType, weightFmt, sectionLine)
	}
}

// parseCoords reads "index x y" lines and builds rounded Euclidean costs.
func parseCoords(sc *bufio.Scanner, name string, n int) (*Instance, error) {
	xs := make([]float64, n)
	ys := make([]float64, n)
	seen := make([]bool, n)
	count := 0
	for count < n && sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if line == "EOF" {
			break
		}
		fields := strings.Fields(line)
		if len(fields) != 3 {
			return nil, fmt.Errorf("tsp: bad coordinate line %q", line)
		}
		idx, err := strconv.Atoi(fields[0])
		if err != nil || idx < 1 || idx > n {
			return nil, fmt.Errorf("tsp: bad city index in %q", line)
		}
		if seen[idx-1] {
			return nil, fmt.Errorf("tsp: duplicate city %d", idx)
		}
		seen[idx-1] = true
		if xs[idx-1], err = strconv.ParseFloat(fields[1], 64); err != nil {
			return nil, fmt.Errorf("tsp: bad x in %q", line)
		}
		if ys[idx-1], err = strconv.ParseFloat(fields[2], 64); err != nil {
			return nil, fmt.Errorf("tsp: bad y in %q", line)
		}
		count++
	}
	if count != n {
		return nil, fmt.Errorf("tsp: got %d coordinates, want %d", count, n)
	}
	c := make([][]int64, n)
	for i := range c {
		c[i] = make([]int64, n)
		c[i][i] = Inf
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			dx, dy := xs[i]-xs[j], ys[i]-ys[j]
			d := math.Round(math.Sqrt(dx*dx + dy*dy))
			if !(d < infCell) {
				return nil, costOutOfRange(d, i, j)
			}
			c[i][j] = int64(d)
			c[j][i] = int64(d)
		}
	}
	label := name
	if label == "" {
		label = fmt.Sprintf("tsplib(n=%d)", n)
	}
	return &Instance{N: n, Cost: c, label: label}, nil
}

// parseFullMatrix reads n×n weights (whitespace-separated, any line
// breaking).
func parseFullMatrix(sc *bufio.Scanner, name string, n int) (*Instance, error) {
	vals := make([]int64, 0, n*n)
	for len(vals) < n*n && sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if line == "EOF" {
			break
		}
		for _, f := range strings.Fields(line) {
			v, err := strconv.ParseInt(f, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("tsp: bad weight %q", f)
			}
			vals = append(vals, v)
		}
	}
	if len(vals) != n*n {
		return nil, fmt.Errorf("tsp: got %d weights, want %d", len(vals), n*n)
	}
	c := make([][]int64, n)
	for i := range c {
		c[i] = make([]int64, n)
		for j := 0; j < n; j++ {
			c[i][j] = vals[i*n+j]
		}
		c[i][i] = Inf
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if c[i][j] != c[j][i] {
				return nil, fmt.Errorf("tsp: asymmetric weights at (%d,%d)", i+1, j+1)
			}
			if v := c[i][j]; v < 0 || v >= infCell {
				return nil, costOutOfRange(v, i, j)
			}
		}
	}
	label := name
	if label == "" {
		label = fmt.Sprintf("tsplib(n=%d)", n)
	}
	return &Instance{N: n, Cost: c, label: label}, nil
}

// costOutOfRange reports an off-diagonal weight at the 0-based cell (i,j)
// that the search cannot hold, naming the cell 1-based as TSPLIB does. Reduction never lifts a negative weight, so the
// lower bound would be wrong; a node's int32 matrix keeps math.MaxInt32
// for a forbidden edge, so larger weights do not fit.
func costOutOfRange(v any, i, j int) error {
	return fmt.Errorf("tsp: weight %v at (%d,%d) is outside [0, %d)", v, i+1, j+1, infCell)
}
