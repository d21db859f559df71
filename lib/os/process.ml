module Iosys = Iolite_core.Iosys
module Iobuf = Iolite_core.Iobuf
module Physmem = Iolite_mem.Physmem
module Pdomain = Iolite_mem.Pdomain

type t = {
  kernel : Kernel.t;
  pid : int;
  name : string;
  domain : Pdomain.t;
  pool : Iobuf.Pool.t;
  footprint : int;
  mutable exited : bool;
}

let make ?(footprint = 256 * 1024) kernel ~name =
  let sys = Kernel.sys kernel in
  let domain = Iosys.new_domain sys ~name in
  let pool =
    Iobuf.Pool.create sys ~name:(name ^ ".pool")
      ~acl:(Iolite_mem.Vm.Only (Pdomain.Set.singleton domain))
  in
  Physmem.wire (Iosys.physmem sys) Physmem.Process footprint;
  {
    kernel;
    pid = Kernel.fresh_pid kernel;
    name;
    domain;
    pool;
    footprint;
    exited = false;
  }

let exit t =
  if not t.exited then begin
    t.exited <- true;
    Physmem.unwire
      (Iosys.physmem (Kernel.sys t.kernel))
      Physmem.Process t.footprint
  end

let spawn ?footprint kernel ~name body =
  let t = make ?footprint kernel ~name in
  Iolite_sim.Engine.spawn ~name (Kernel.engine kernel) (fun () ->
      match body t with
      | () -> exit t
      | exception e ->
        exit t;
        raise e);
  t

let kernel t = t.kernel
let pid t = t.pid
let name t = t.name
let domain t = t.domain
let pool t = t.pool

let charge t dt =
  let total = dt +. Kernel.take_pending t.kernel in
  if total > 0.0 then Cpu.charge (Kernel.cpu t.kernel) ~owner:t.pid total

let charge_pending t = charge t 0.0

let compute_at t ~bytes ~rate = charge t (float_of_int bytes /. rate)
