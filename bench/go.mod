module mdv/bench

go 1.24

require mdv v0.0.0

replace mdv => ../
