package main

import "testing"

func TestUses(t *testing.T) {
	if OnlyTested()+Seam()+Public() != 6 {
		t.Fatal("sum")
	}
}
