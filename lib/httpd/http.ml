type request = { path : string; keep_alive : bool }

(* Messages are assembled from literal pieces: the fixed text between
   the variable fields is precomputed, so building one costs a single
   concatenation. *)
let request_string ?(keep_alive = false) path =
  String.concat ""
    [
      "GET ";
      path;
      (if keep_alive then " HTTP/1.1\r\n" else " HTTP/1.0\r\n");
      "Host: server.example.edu\r\nUser-Agent: repro-client/1.0\r\nAccept: \
       */*\r\n";
      (if keep_alive then "Connection: keep-alive\r\n\r\n" else "\r\n");
    ]

(* [s] holds [lit] at offset [i]. *)
let matches_at s i lit =
  let n = String.length lit in
  i >= 0
  && i + n <= String.length s
  &&
  let rec eq j =
    j >= n
    || (String.unsafe_get s (i + j) = String.unsafe_get lit j && eq (j + 1))
  in
  eq 0

(* First index of [c] in [s] within [i, stop), or -1. *)
let rec index_in s c i stop =
  if i >= stop then -1
  else if String.unsafe_get s i = c then i
  else index_in s c (i + 1) stop

(* Cheap header scan; enough for the simulated clients. Only positions
   holding a 'k' are compared against the token. *)
let mentions_keep_alive s =
  let last = String.length s - 10 in
  let rec from i =
    let k = index_in s 'k' i (last + 1) in
    k >= 0 && (matches_at s k "keep-alive" || from (k + 1))
  in
  from 0

(* The request line is everything before the first '\r' and must be
   exactly "GET <path> <proto>": "GET", then exactly two spaces. With no
   '\r', [eol] is -1 and no space is found before it. *)
let parse_request s =
  let eol = index_in s '\r' 0 (String.length s) in
  let sp = if matches_at s 0 "GET " then index_in s ' ' 4 eol else -1 in
  if sp < 0 || index_in s ' ' (sp + 1) eol >= 0 then None
  else
    let keep_alive =
      (eol - sp - 1 = 8 && matches_at s (sp + 1) "HTTP/1.1")
      || mentions_keep_alive s
    in
    Some { path = String.sub s 4 (sp - 4); keep_alive }

let reason = function
  | 200 -> "OK"
  | 404 -> "Not Found"
  | 502 -> "Bad Gateway"
  | _ -> "Unknown"

let response_header ?(status = 200) ?(keep_alive = false) ~content_length () =
  String.concat ""
    [
      (if keep_alive then "HTTP/1.1 " else "HTTP/1.0 ");
      string_of_int status;
      " ";
      reason status;
      "\r\nDate: Thu, 04 Feb 1999 21:00:00 GMT\r\nServer: Flash/0.1 (FreeBSD \
       2.2.6)\r\nContent-Type: text/html\r\nLast-Modified: Mon, 01 Feb 1999 \
       09:00:00 GMT\r\nContent-Length: ";
      string_of_int content_length;
      (if keep_alive then "\r\nConnection: keep-alive\r\n\r\n"
       else "\r\nConnection: close\r\n\r\n");
    ]

let not_found_body = "<html><body><h1>404 Not Found</h1></body></html>"
