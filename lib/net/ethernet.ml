let header_size = 14
let min_frame_size = 60
let ethertype_ipv4 = 0x0800
