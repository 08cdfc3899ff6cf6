type kind = Heap

let kind_name Heap = "heap"
