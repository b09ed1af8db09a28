module mood/bench

go 1.24

require mood v0.0.0

replace mood => ../
