package vm

// NumSpecPrims is the number of specialized-primitive dispatch codes
// (xPCar..xPCharEq).
const NumSpecPrims = int(xPCharEq-xPCar) + 1

// DecodedSpecPrims reports which specialized-primitive dispatch codes
// (indexed from xPCar) p's decoded form uses.
func DecodedSpecPrims(p *Program) (seen [NumSpecPrims]bool) {
	for _, d := range p.engine().code {
		if d.x >= xPCar && d.x <= xPCharEq {
			seen[d.x-xPCar] = true
		}
	}
	return seen
}
