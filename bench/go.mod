module compstor/bench

go 1.22

require compstor v0.0.0

replace compstor => ../
