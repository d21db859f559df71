let page_size = 4096
let chunk_size = 65536
let pages_per_chunk = chunk_size / page_size

let pages_of_bytes n = if n <= 0 then 0 else ((n - 1) / page_size) + 1
let round_to_pages n = pages_of_bytes n * page_size
