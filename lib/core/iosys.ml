open Iolite_mem
module Metrics = Iolite_obs.Metrics
module Trace = Iolite_obs.Trace

type touch = Copy | Fill | Dma

let touch_name = function
  | Copy -> "bytes.copied"
  | Fill -> "bytes.filled"
  | Dma -> "bytes.dma"

type fill_mode = [ `Fill | `As_copy | `Dma ]

(* Counter cells for the cross-domain-transfer hot path, resolved once at
   system creation: the warm-transfer promise is "no Hashtbl probes",
   which has to include the metrics bookkeeping. *)
type xfer_cells = {
  xc_sends : int ref;
  xc_bytes : int ref;
  xc_warm_hits : int ref;
  xc_cold_walks : int ref;
}

type t = {
  physmem : Physmem.t;
  vm : Vm.t;
  pageout : Pageout.t;
  kernel : Pdomain.t;
  metrics : Metrics.t;
  trace : Trace.t;
  flow : Iolite_obs.Flow.t;
  attrib : Iolite_obs.Attrib.t;
  xfer : xfer_cells;
  mutable on_touch : touch -> int -> unit;
  mutable fill_mode : fill_mode;
}

let create ?(capacity = 128 * 1024 * 1024) ?(seed = 0x10117EL) () =
  let physmem = Physmem.create ~capacity in
  let metrics = Metrics.create () in
  let trace = Trace.create () in
  let vm = Vm.create ~metrics ~trace ~physmem () in
  let attrib = Iolite_obs.Attrib.create () in
  let pageout = Pageout.create ~trace ~attrib ~physmem ~seed () in
  Pageout.install pageout;
  {
    physmem;
    vm;
    pageout;
    flow = Iolite_obs.Flow.create trace;
    attrib;
    kernel = Pdomain.make ~trusted:true ~name:"kernel" ();
    metrics;
    trace;
    xfer =
      {
        xc_sends = Metrics.counter metrics "transfer.send";
        xc_bytes = Metrics.counter metrics "transfer.bytes";
        xc_warm_hits = Metrics.counter metrics "transfer.warm_hits";
        xc_cold_walks = Metrics.counter metrics "transfer.cold_walks";
      };
    on_touch = (fun _ _ -> ());
    fill_mode = `Fill;
  }

let physmem t = t.physmem
let vm t = t.vm
let transfer_cells t = t.xfer
let pageout t = t.pageout
let kernel t = t.kernel

let new_domain _t ~name = Pdomain.make ~name ()

let set_on_touch t f = t.on_touch <- f

let touch t kind n =
  if n > 0 then begin
    let kind =
      match kind with
      | Fill -> (
        match t.fill_mode with `Fill -> Fill | `As_copy -> Copy | `Dma -> Dma)
      | Copy | Dma -> kind
    in
    Metrics.add t.metrics (touch_name kind) n;
    t.on_touch kind n
  end

let with_fill_mode t mode f =
  let saved = t.fill_mode in
  t.fill_mode <- mode;
  match f () with
  | v ->
    t.fill_mode <- saved;
    v
  | exception exn ->
    t.fill_mode <- saved;
    raise exn

let metrics t = t.metrics
let trace t = t.trace
let flow t = t.flow
let attrib t = t.attrib
