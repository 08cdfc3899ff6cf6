let header_size = 8

type error = Truncated | Bad_length of int | Bad_checksum

let pp_error ppf = function
  | Truncated -> Format.pp_print_string ppf "truncated UDP header"
  | Bad_length l -> Format.fprintf ppf "bad UDP length %d" l
  | Bad_checksum -> Format.pp_print_string ppf "bad UDP checksum"
