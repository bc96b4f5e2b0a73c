module dnscentral/bench

go 1.22

require dnscentral v0.0.0

replace dnscentral => ../
