package workloads

// BuildDirect builds the workload with the given canonical name through
// its constructor alone, with the params ByNameWith passes it.
func BuildDirect(name string, p Params) *Workload {
	switch name {
	case "XS":
		return xs(p.resolve())
	case "SEQ":
		return seqW(p)
	}
	panic("workloads: BuildDirect: no constructor for " + name)
}
