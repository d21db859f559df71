module Metrics = Iolite_obs.Metrics
module Trace = Iolite_obs.Trace

type prot = No_access | Read_only | Read_write

type op =
  | Map_read
  | Grant_write
  | Revoke_write
  | Unmap
  | Page_alloc
  | Page_fault

let op_name = function
  | Map_read -> "vm.map_read"
  | Grant_write -> "vm.grant_write"
  | Revoke_write -> "vm.revoke_write"
  | Unmap -> "vm.unmap"
  | Page_alloc -> "vm.page_alloc"
  | Page_fault -> "vm.page_fault"

let op_index = function
  | Map_read -> 0
  | Grant_write -> 1
  | Revoke_write -> 2
  | Unmap -> 3
  | Page_alloc -> 4
  | Page_fault -> 5

let op_short = function
  | Map_read -> "map_read"
  | Grant_write -> "grant_write"
  | Revoke_write -> "revoke_write"
  | Unmap -> "unmap"
  | Page_alloc -> "page_alloc"
  | Page_fault -> "page_fault"

type acl = Public | Only of Pdomain.Set.t

type chunk = {
  id : int;
  label : string;
  mutable acl : acl;
  mutable resident_pages : int;
  mutable generation : int;
  (* Mapping state per domain id. *)
  mappings : (int, prot) Hashtbl.t;
  (* Domains that hold a mapping, for teardown. *)
  mutable domains : Pdomain.t list;
}

type t = {
  physmem : Physmem.t;
  mutable on_op : op -> pages:int -> unit;
  mutable pager : pages:int -> unit;
  metrics : Metrics.t;
  op_sites : Metrics.site array; (* by [op_index] *)
  trace : Trace.t;
  mutable next_chunk : int;
}

exception Protection_fault of string

let create ?metrics ?trace ~physmem () =
  let metrics = match metrics with Some m -> m | None -> Metrics.create () in
  {
    physmem;
    on_op = (fun _ ~pages:_ -> ());
    pager = (fun ~pages:_ -> ());
    metrics;
    op_sites =
      Array.map
        (fun op -> Metrics.site metrics (op_name op))
        [| Map_read; Grant_write; Revoke_write; Unmap; Page_alloc; Page_fault |];
    trace = (match trace with Some tr -> tr | None -> Trace.create ());
    next_chunk = 0;
  }

let set_on_op t f = t.on_op <- f
let set_pager t f = t.pager <- f
let metrics t = t.metrics

let record t op pages =
  Metrics.bump t.op_sites.(op_index op) pages;
  if Trace.enabled t.trace then
    Trace.instant t.trace ~cat:"vm" ~name:(op_short op)
      ~args:[ ("pages", Int pages) ]
      ();
  t.on_op op ~pages

let note_op t op ~pages = record t op pages

let alloc_chunk t ~label ~acl =
  t.next_chunk <- t.next_chunk + 1;
  Physmem.alloc_pageable t.physmem Page.chunk_size;
  {
    id = t.next_chunk;
    label;
    acl;
    resident_pages = Page.pages_per_chunk;
    generation = 0;
    mappings = Hashtbl.create 4;
    domains = [];
  }

let chunk_id c = c.id
let chunk_acl c = c.acl
let chunk_resident c = c.resident_pages > 0
let resident_pages c = c.resident_pages
let resident_bytes c = c.resident_pages * Page.page_size
let chunk_generation c = c.generation

let free_pages t c ~pages =
  let pages = min pages c.resident_pages in
  if pages <= 0 then 0
  else begin
    Physmem.free_pageable t.physmem (pages * Page.page_size);
    c.resident_pages <- c.resident_pages - pages;
    pages * Page.page_size
  end

let ensure_resident t c =
  let missing = Page.pages_per_chunk - c.resident_pages in
  if missing > 0 then begin
    Physmem.alloc_pageable t.physmem (missing * Page.page_size);
    c.resident_pages <- Page.pages_per_chunk;
    record t Page_alloc missing
  end

let destroy_chunk t c =
  ignore (free_pages t c ~pages:c.resident_pages);
  let mapped = Hashtbl.length c.mappings in
  if mapped > 0 then record t Unmap (mapped * Page.pages_per_chunk);
  Hashtbl.reset c.mappings;
  c.domains <- []

let recycle_chunk t c =
  c.generation <- c.generation + 1;
  ensure_resident t c

let bump_generation _t c =
  c.generation <- c.generation + 1;
  c.generation

let release_chunk_memory t c = free_pages t c ~pages:c.resident_pages

let prot _t domain c =
  match Hashtbl.find_opt c.mappings (Pdomain.id domain) with
  | Some p -> p
  | None -> No_access

let acl_allows domain c =
  Pdomain.trusted domain
  ||
  match c.acl with
  | Public -> true
  | Only set -> Pdomain.Set.mem domain set

let map_read t domain c =
  if not (acl_allows domain c) then
    raise
      (Protection_fault
         (Printf.sprintf "domain %s not on ACL of chunk %d (%s)"
            (Pdomain.name domain) c.id c.label));
  match prot t domain c with
  | Read_only | Read_write -> ()
  | No_access ->
    Hashtbl.replace c.mappings (Pdomain.id domain) Read_only;
    c.domains <- domain :: c.domains;
    record t Map_read Page.pages_per_chunk

let grant_write t domain c =
  if not (acl_allows domain c) then
    raise
      (Protection_fault
         (Printf.sprintf "domain %s may not write chunk %d (%s)"
            (Pdomain.name domain) c.id c.label));
  match prot t domain c with
  | Read_write -> ()
  | Read_only | No_access ->
    if prot t domain c = No_access then begin
      c.domains <- domain :: c.domains;
      (* First contact with the chunk also establishes the mapping. *)
      record t Map_read Page.pages_per_chunk
    end;
    Hashtbl.replace c.mappings (Pdomain.id domain) Read_write

let revoke_write t domain c =
  match prot t domain c with
  | Read_write ->
    if Pdomain.trusted domain then ()
      (* Trusted producers keep permanent write permission. *)
    else Hashtbl.replace c.mappings (Pdomain.id domain) Read_only
  | Read_only | No_access -> ()

let restrict_chunk_acl t c acl =
  c.acl <- acl;
  let keep, evict = List.partition (fun d -> acl_allows d c) c.domains in
  List.iter
    (fun d ->
      if Hashtbl.mem c.mappings (Pdomain.id d) then begin
        Hashtbl.remove c.mappings (Pdomain.id d);
        record t Unmap Page.pages_per_chunk
      end)
    evict;
  c.domains <- keep

let readable t domain c =
  match prot t domain c with
  | Read_only | Read_write -> true
  | No_access -> ignore t; false

let writable t domain c =
  match prot t domain c with
  | Read_write -> true
  | Read_only | No_access -> ignore t; false

let check_readable t domain c =
  if not (readable t domain c) then
    raise
      (Protection_fault
         (Printf.sprintf "domain %s has no read mapping for chunk %d (%s)"
            (Pdomain.name domain) c.id c.label));
  if c.resident_pages = 0 then begin
    (* Touching a paged-out chunk: fault it back in. The pager reads the
       chunk back from backing store, suspending just the faulting
       process; the fault cost itself is charged via [on_op]. *)
    record t Page_fault 1;
    t.pager ~pages:Page.pages_per_chunk;
    ensure_resident t c
  end
