type t = {
  copy_rate : float;
  fill_rate : float;
  cksum_rate : float;
  cksum_fold : float;
  syscall : float;
  per_packet : float;
  demux : float;
  page_map : float;
  page_fault : float;
  context_switch : float;
  tcp_setup : float;
  tcp_teardown : float;
  metadata_lookup : float;
  proc_fork : float;
}

let default =
  {
    copy_rate = 100e6;
    fill_rate = 100e6;
    cksum_rate = 160e6;
    cksum_fold = 50e-9;
    syscall = 5e-6;
    per_packet = 20e-6;
    demux = 1.5e-6;
    page_map = 10e-6;
    page_fault = 20e-6;
    context_switch = 30e-6;
    tcp_setup = 160e-6;
    tcp_teardown = 90e-6;
    metadata_lookup = 10e-6;
    proc_fork = 3e-3;
  }

let copy_time t n = float_of_int n /. t.copy_rate
let fill_time t n = float_of_int n /. t.fill_rate
let cksum_time t n = float_of_int n /. t.cksum_rate
let cksum_fold_time t n = float_of_int n *. t.cksum_fold

let packets ~mtu n = if n <= 0 then 0 else ((n - 1) / mtu) + 1

let packet_time t ~mtu n = float_of_int (packets ~mtu n) *. t.per_packet
