module exbox/bench

go 1.22

require exbox v0.0.0

replace exbox => ../
