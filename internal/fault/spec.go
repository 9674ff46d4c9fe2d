// Fault-spec mini-language for the command line. A spec is a
// comma-separated list of clauses:
//
//	drop=P           drop probability (one shared message rule)
//	dup=P            duplication probability
//	delay=P[:C]      delay probability, optional max extra cycles C
//	kinds=K[+K...]   eligible kinds: eventu (default), event, dram
//	                 (reads, writes, fetch-adds), control, all
//	src=N dst=N      restrict the rule to one source/destination node
//	from=T until=T   restrict the rule to send times [T, U)
//	failstop=N@T     fail-stop node N at cycle T
//	stall=L@T+F      stall lane L for F cycles starting at T
//	degrade=N:I:D[@T]  multiply node N's injection service time by I and
//	                 its DRAM service time by D, from cycle T (default 0)
//
// Example: drop=0.03,dup=0.01,delay=0.005:2000,failstop=3@20000
//
// All drop/dup/delay/kinds/src/dst/from/until clauses merge into one
// MsgRule; programs that need several rules build the Plan directly.
package fault

import (
	"fmt"
	"strconv"
	"strings"

	"updown/internal/arch"
)

// ParseSpec parses the command-line fault-spec grammar above into a Plan
// (with Seed zero; the caller sets it from its own flag). An empty spec
// returns a nil Plan.
func ParseSpec(spec string) (*Plan, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	p := &Plan{}
	var r MsgRule
	r.SrcNode, r.DstNode = AnyNode, AnyNode
	haveRule := false
	for _, clause := range strings.Split(spec, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(clause), "=")
		if !ok || val == "" {
			return nil, fmt.Errorf("fault: clause %q: want key=value", clause)
		}
		switch key {
		case "drop", "dup", "delay":
			prob := val
			if key == "delay" {
				var cyc string
				if prob, cyc, ok = strings.Cut(val, ":"); ok {
					c, err := parseCycles(cyc)
					if err != nil {
						return nil, fmt.Errorf("fault: delay cycles %q: %v", cyc, err)
					}
					r.DelayCycles = c
				}
			}
			f, err := strconv.ParseFloat(prob, 64)
			if err != nil || !(f >= 0 && f <= 1) { // NaN fails both
				return nil, fmt.Errorf("fault: %s probability %q: want a value in [0,1]", key, prob)
			}
			switch key {
			case "drop":
				r.DropProb = f
			case "dup":
				r.DupProb = f
			case "delay":
				r.DelayProb = f
			}
			haveRule = true
		case "kinds":
			mask, err := parseKinds(val)
			if err != nil {
				return nil, err
			}
			r.Kinds = mask
		case "src", "dst":
			n, err := strconv.Atoi(val)
			if err != nil || n < 0 {
				return nil, fmt.Errorf("fault: %s node %q: want a non-negative integer", key, val)
			}
			if key == "src" {
				r.SrcNode = n
			} else {
				r.DstNode = n
			}
		case "from", "until":
			c, err := parseCycles(val)
			if err != nil {
				return nil, fmt.Errorf("fault: %s %q: %v", key, val, err)
			}
			if key == "from" {
				r.From = c
			} else {
				r.Until = c
			}
		case "failstop":
			node, at, ok := strings.Cut(val, "@")
			if !ok {
				return nil, fmt.Errorf("fault: failstop %q: want NODE@CYCLE", val)
			}
			n, err := strconv.Atoi(node)
			if err != nil || n < 0 {
				return nil, fmt.Errorf("fault: failstop node %q: want a non-negative integer", node)
			}
			c, err := parseCycles(at)
			if err != nil {
				return nil, fmt.Errorf("fault: failstop cycle %q: %v", at, err)
			}
			p.FailStops = append(p.FailStops, FailStop{Node: n, At: c})
		case "stall":
			lane, rest, ok := strings.Cut(val, "@")
			if !ok {
				return nil, fmt.Errorf("fault: stall %q: want LANE@CYCLE+FOR", val)
			}
			at, dur, ok := strings.Cut(rest, "+")
			if !ok {
				return nil, fmt.Errorf("fault: stall %q: want LANE@CYCLE+FOR", val)
			}
			l, err := strconv.Atoi(lane)
			if err != nil || l < 0 {
				return nil, fmt.Errorf("fault: stall lane %q: want a non-negative integer", lane)
			}
			c, err := parseCycles(at)
			if err != nil {
				return nil, fmt.Errorf("fault: stall cycle %q: %v", at, err)
			}
			d, err := parseCycles(dur)
			if err != nil || d <= 0 {
				return nil, fmt.Errorf("fault: stall duration %q: want a positive cycle count", dur)
			}
			p.Stalls = append(p.Stalls, Stall{Lane: arch.NetworkID(l), At: c, For: d})
		case "degrade":
			node, rest, ok := strings.Cut(val, ":")
			if !ok {
				return nil, fmt.Errorf("fault: degrade %q: want NODE:INJ:DRAM[@CYCLE]", val)
			}
			inj, rest, ok := strings.Cut(rest, ":")
			if !ok {
				return nil, fmt.Errorf("fault: degrade %q: want NODE:INJ:DRAM[@CYCLE]", val)
			}
			dram := rest
			var from arch.Cycles
			if d, at, ok := strings.Cut(rest, "@"); ok {
				dram = d
				c, err := parseCycles(at)
				if err != nil {
					return nil, fmt.Errorf("fault: degrade cycle %q: %v", at, err)
				}
				from = c
			}
			n, err := strconv.Atoi(node)
			if err != nil || n < 0 {
				return nil, fmt.Errorf("fault: degrade node %q: want a non-negative integer", node)
			}
			fi, err := strconv.ParseInt(inj, 10, 64)
			if err != nil || fi < 1 {
				return nil, fmt.Errorf("fault: degrade injection factor %q: want an integer ≥ 1", inj)
			}
			fd, err := strconv.ParseInt(dram, 10, 64)
			if err != nil || fd < 1 {
				return nil, fmt.Errorf("fault: degrade DRAM factor %q: want an integer ≥ 1", dram)
			}
			p.Degrades = append(p.Degrades, Degrade{Node: n, InjFactor: fi, DRAMFactor: fd, From: from})
		default:
			return nil, fmt.Errorf("fault: unknown clause %q", key)
		}
	}
	if haveRule {
		p.Rules = append(p.Rules, r)
	} else if r != (MsgRule{SrcNode: AnyNode, DstNode: AnyNode}) {
		return nil, fmt.Errorf("fault: spec %q sets rule filters but no drop/dup/delay probability", spec)
	}
	if len(p.Rules) == 0 && len(p.Stalls) == 0 && len(p.Degrades) == 0 && len(p.FailStops) == 0 {
		return nil, nil
	}
	return p, nil
}

func parseCycles(s string) (arch.Cycles, error) {
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil || v < 0 {
		return 0, fmt.Errorf("want a non-negative cycle count")
	}
	return arch.Cycles(v), nil
}

func parseKinds(s string) (uint16, error) {
	var mask uint16
	for _, name := range strings.Split(s, "+") {
		switch name {
		case "eventu":
			mask |= 1 << arch.KindEventU
		case "event":
			mask |= 1 << arch.KindEvent
		case "dram":
			mask |= 1<<arch.KindDRAMRead | 1<<arch.KindDRAMWrite | 1<<arch.KindDRAMFetchAdd
		case "control":
			mask |= 1 << arch.KindControl
		case "all":
			mask = (1 << 16) - 1
		default:
			return 0, fmt.Errorf("fault: unknown kind %q (want eventu, event, dram, control or all)", name)
		}
	}
	return mask, nil
}
