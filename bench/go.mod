module tdp/bench

go 1.22

require tdp v0.0.0

replace tdp => ../
