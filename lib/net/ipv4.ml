let header_size = 20
let protocol_udp = 17

type error =
  | Truncated
  | Bad_version of int
  | Options_unsupported of int
  | Bad_checksum
  | Bad_length of int

let pp_error ppf = function
  | Truncated -> Format.pp_print_string ppf "truncated IPv4 header"
  | Bad_version v -> Format.fprintf ppf "bad IP version %d" v
  | Options_unsupported ihl -> Format.fprintf ppf "IP options (ihl=%d)" ihl
  | Bad_checksum -> Format.pp_print_string ppf "bad IPv4 header checksum"
  | Bad_length l -> Format.fprintf ppf "inconsistent total_length %d" l
