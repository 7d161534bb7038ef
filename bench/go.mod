module parcfl/bench

go 1.22

require parcfl v0.0.0

replace parcfl => ../
