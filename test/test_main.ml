let () =
  Alcotest.run "iolite"
    (Test_util.suites @ Test_sim.suites @ Test_mem.suites @ Test_iobuf.suites
   @ Test_itree.suites @ Test_extmap.suites @ Test_cache.suites @ Test_fs.suites @ Test_net.suites @ Test_ipc.suites
   @ Test_os.suites @ Test_httpd.suites @ Test_apps.suites
   @ Test_workload.suites @ Test_stdiol.suites @ Test_mmapio.suites
   @ Test_faults.suites @ Test_transfer.suites @ Test_misc.suites
   @ Test_obs.suites @ Test_writeback.suites @ Test_tier.suites)
