package experiments

import (
	"reflect"
	"testing"
)

// sameAtBothSizes lists the config fields that may hold one value at
// both sizes, with the reason each stays a field.
var sameAtBothSizes = map[string]string{
	"ChaosConfig.Workers": "bench's smoke run shrinks the fleet to 3",
	"BoundaryConfig.NICs": "bench's smoke run shrinks the rack to 2",
}

// TestConfigKnobsVary holds the rack and rdmabench configs to fields
// their sizes set differently: a value that is the same at the full and
// the quick size belongs in a constant next to the code that reads it.
func TestConfigKnobsVary(t *testing.T) {
	for _, pair := range [][2]any{
		{DefaultSkew(), QuickSkew()},
		{DefaultBoundary(), QuickBoundary()},
		{DefaultChaos(), QuickChaos()},
		{DefaultTenants(), QuickTenants()},
		{DefaultRdmaBench(), QuickRdmaBench()},
	} {
		full, quick := reflect.ValueOf(pair[0]), reflect.ValueOf(pair[1])
		typ := full.Type()
		for i := 0; i < typ.NumField(); i++ {
			name := typ.Name() + "." + typ.Field(i).Name
			_, allowed := sameAtBothSizes[name]
			same := reflect.DeepEqual(full.Field(i).Interface(), quick.Field(i).Interface())
			switch {
			case same && !allowed:
				t.Errorf("%s is %v at both sizes: make it a constant", name, full.Field(i))
			case !same && allowed:
				t.Errorf("%s differs between sizes (%v, %v): drop it from sameAtBothSizes", name, full.Field(i), quick.Field(i))
			}
		}
	}
}
